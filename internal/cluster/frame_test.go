package cluster

import (
	"runtime"
	"testing"

	"graf/internal/app"
	"graf/internal/sim"
)

// Once the free lists have grown a request allocates nothing
// (TestSteadyStateRequestAllocations); until then each request in flight
// beyond what the list holds costs one new record: the request and its visit
// counts, and no span array, which only a request an observer sees builds.
func TestRequestRecordFirstFill(t *testing.T) {
	cl := New(sim.NewEngine(1), app.OnlineBoutique(), DefaultConfig())
	const n = 1000
	held := make([]*request, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		held = append(held, cl.newRequest())
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / n
	if perReq > 128 {
		t.Errorf("%.0f bytes per pooled request record, want ≤ 128", perReq)
	}
	t.Logf("%.0f bytes per pooled request record", perReq)
}
