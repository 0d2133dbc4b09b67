package overload

import (
	"context"
	"strconv"
	"time"
)

// HeaderDeadlineMS is the wire contract for deadline propagation: each RPC
// attempt carries the remaining end-to-end budget, in integer milliseconds,
// in this header. The receiver re-anchors it against its own clock (only a
// duration crosses the wire, never an absolute timestamp, so clock skew
// between processes cannot invent or destroy budget) and sheds the request
// once the budget is gone.
const HeaderDeadlineMS = "Graf-Deadline-Ms"

// maxDuration is the largest representable budget; header values whose
// millisecond count would overflow it are rejected as malformed.
const maxDuration = time.Duration(1<<63 - 1)

// ValidBudgetMS reports whether ms is a usable budget in milliseconds:
// finite, non-negative, and no larger than a time.Duration can hold. NaN,
// +Inf and larger values convert to a negative Duration, which would
// silently turn off the deadline they configure.
func ValidBudgetMS(ms float64) bool {
	return ms >= 0 && ms <= float64(maxDuration/time.Millisecond)
}

// FormatRemaining renders a remaining budget as the header value, rounding
// up so a positive remainder never serializes to "0" (which would mean
// already expired). Non-positive budgets return "0".
func FormatRemaining(d time.Duration) string {
	if d <= 0 {
		return "0"
	}
	// Ceil without the usual +((1ms)-1) trick: that addition overflows for
	// budgets within a millisecond of the Duration ceiling.
	ms := d / time.Millisecond
	if d%time.Millisecond != 0 && ms < maxDuration/time.Millisecond {
		// Round up, except in the topmost partial millisecond of the
		// representable range, where rounding up would serialize a value
		// the parser must reject as unrepresentable.
		ms++
	}
	return strconv.FormatInt(int64(ms), 10)
}

// ParseRemaining parses a header value back into a budget. ok is false when
// the header is absent or malformed — the receiver then treats the request
// as having no deadline.
func ParseRemaining(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms < 0 || ms > int64(maxDuration/time.Millisecond) {
		// Values past the overflow point would wrap negative when widened to
		// a Duration — a ~292-year budget is malformed, not a deadline.
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

type deadlineKey struct{}

// WithDeadline attaches a request's propagated deadline to its context.
func WithDeadline(ctx context.Context, d time.Time) context.Context {
	return context.WithValue(ctx, deadlineKey{}, d)
}

// DeadlineFrom extracts a propagated deadline; ok is false when the request
// carried none.
func DeadlineFrom(ctx context.Context) (time.Time, bool) {
	d, ok := ctx.Value(deadlineKey{}).(time.Time)
	return d, ok
}
