package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"graf/internal/cluster"
	"graf/internal/forecast"
)

func freshGob(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// richSnapshot fills every field kind a snapshot carries: nested maps, slices,
// a forecaster behind a pointer, and the router's opaque blob.
func richSnapshot(i int) *Snapshot {
	s := &Snapshot{Generation: i, At: 5 * float64(i), Ticks: i, Opaque: []byte{byte(i), 1, 2}}
	s.Controller.LastRate = 100 + float64(i)
	s.Controller.LastQuotas = map[string]float64{"web": 900, "cart": 350, "db": 450 + float64(i)}
	s.Controller.Profiles = map[string]map[string]float64{"home": {"web": 1, "db": 2}, "buy": {"cart": 1}}
	s.Controller.LastRaw = []float64{1, 2, float64(i)}
	s.Controller.Stats.Boosts = i
	s.Controller.Forecast = forecast.NewPredictor(forecast.Config{Enabled: true, Model: "hw"})
	s.Controller.Forecast.Resid = []float64{0.5, -0.25}
	s.Cluster = cluster.ClusterState{At: s.At, Deployments: []cluster.DeploymentState{
		{Service: "web", Quota: 900, Ready: 2, PendingReadyAt: []float64{7.5}},
		{Service: "db", Quota: 450, Ready: 1},
	}}
	return s
}

// The warmed encoder's stream has a fresh encoder's length and decodes, through
// a fresh decoder, to the value a fresh encoder's stream decodes to.
func TestGobEncoderMatchesFreshEncoder(t *testing.T) {
	var g GobEncoder[Snapshot]
	for i, s := range []*Snapshot{{}, richSnapshot(1), {At: 3}, richSnapshot(2), richSnapshot(3)} {
		got, err := g.Append(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		want := freshGob(t, s)
		if len(got) != len(want) {
			t.Fatalf("snapshot %d: %d bytes, a fresh encoder writes %d", i, len(got), len(want))
		}
		var a, b Snapshot
		if err := gob.NewDecoder(bytes.NewReader(got)).Decode(&a); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if err := gob.NewDecoder(bytes.NewReader(want)).Decode(&b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("snapshot %d decodes to\n%+v\nwant\n%+v", i, a, b)
		}
	}
}

type gobItem struct {
	Name string
	Vals []float64
}

type gobList struct {
	Epoch uint64
	Items []*gobItem
}

// Without maps there is no random order left: the bytes are a fresh
// encoder's exactly. A value gob refuses (a nil slice element) fails without
// poisoning the encoder, and Append leaves dst alone on failure.
func TestGobEncoderIsByteEqualAndRecovers(t *testing.T) {
	var g GobEncoder[gobList]
	good := &gobList{Epoch: 3, Items: []*gobItem{{Name: "a", Vals: []float64{1, 2}}, {Name: "b"}}}
	bad := &gobList{Items: []*gobItem{{Name: "a"}, nil}}
	for step, v := range []*gobList{good, bad, good, {}, bad, bad, good} {
		got, err := g.Append([]byte("hdr"), v)
		if v == bad {
			if err == nil || string(got) != "hdr" {
				t.Fatalf("step %d: nil element encoded: %q, %v", step, got, err)
			}
			if g.enc != nil {
				t.Fatalf("step %d: encoder kept after an error; the next call must warm a new one", step)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if want := append([]byte("hdr"), freshGob(t, v)...); !bytes.Equal(got, want) {
			t.Fatalf("step %d: stream differs from a fresh encoder's\n got %x\nwant %x", step, got, want)
		}
	}
}

// AppendSnapshot is shared by every store in a process; concurrent callers
// (two shard servers checkpointing at once) each get their own value back.
// Run under -race in CI.
func TestEncodeSnapshotConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				in := richSnapshot(w*100 + i)
				data, err := AppendSnapshot(nil, in)
				if err == nil {
					var out *Snapshot
					if out, err = DecodeSnapshot(data); err == nil && !reflect.DeepEqual(out, in) {
						err = fmt.Errorf("worker %d snapshot %d came back as %+v", w, i, out)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
