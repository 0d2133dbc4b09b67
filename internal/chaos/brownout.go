package chaos

import (
	"bytes"
	"errors"

	"graf/internal/obs"
	"graf/internal/overload"
)

// BrownoutTransitions extracts the ladder walk a tenant's audit stream
// records. A truncated tail (mid-write crash artifact) is tolerated.
func BrownoutTransitions(log []byte) ([]overload.Transition, error) {
	recs, err := obs.ReadLog(bytes.NewReader(log))
	if err != nil && !errors.Is(err, obs.ErrTruncatedTail) {
		return nil, err
	}
	var out []overload.Transition
	for _, r := range recs {
		if r.Type != "brownout" {
			continue
		}
		out = append(out, overload.Transition{
			From: overload.Step(r.Summary["from_step"]),
			To:   overload.Step(r.Summary["to_step"]),
		})
	}
	return out, nil
}
