package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"graf/internal/fleet"
	"graf/internal/obs"
	"graf/internal/overload"
)

// A router round over two in-process shards allocates what net/http's two
// exchanges cost and little more: the plane's own part — the bytes of a
// round less those of two /healthz probes, which pay the same client,
// transport and server — is held to a ceiling. The shards decode requests
// from pooled buffers and the router decodes answers into statuses it
// keeps; a per-request json.Decoder on the shard alone costs ~1.5 KB a
// round and breaks the ceiling.
func TestRoundAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers and allocates")
	}
	bundle := testBundle(t)
	_, a1 := startShard(t, bundle, "", "")
	_, a2 := startShard(t, bundle, "", "")
	r, err := NewRouter(RouterConfig{Spec: testSpec(), Tenants: tenantIDs(1)}, []string{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	const n = 100
	perCall := func(f func()) float64 {
		for range 10 {
			f()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	round := perCall(func() {
		if err := r.RunRound(); err != nil {
			t.Fatal(err)
		}
	})
	floor := perCall(func() {
		for _, addr := range []string{a1, a2} {
			if _, err := r.Client().Health(addr); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Reading: 3.9–4.2 KB a round over a 14.9 KB floor (go1.24,
	// linux/amd64, GOMAXPROCS 1–4). With a per-request decoder the round
	// reads 5.5 KB, so the ceiling sits at 1.2× the reading: 1.5× would
	// let that decoder through.
	const ceiling = 4900
	if plane := round - floor; plane > ceiling {
		t.Errorf("a round allocates %.0f B past two probes' %.0f B, ceiling %d B", plane, floor, ceiling)
	}
}

// The router decodes every round's statuses into the ones it kept from the
// last. encoding/json leaves a field the answer omits as it was, so a
// Degraded or Brownout one round would survive into the next without the
// reset Tick does; the router's view must follow the shard's.
func TestTickStatusesDoNotCarryOver(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/tick":
			var req TickRequest
			if !readJSON(w, r, &req) {
				return
			}
			st := TenantStatus{ID: "tenant-00", Ticks: req.Round, AuditLen: req.Round, AuditFNV: uint64(req.Round)}
			if req.Round == 1 {
				st.Degraded, st.Brownout = true, int(overload.StepHold)
			}
			writeJSON(w, http.StatusOK, TickResponse{Round: req.Round, Statuses: []TenantStatus{st}})
		case "/v1/admit":
			writeJSON(w, http.StatusOK, AdmitResponse{Status: TenantStatus{ID: "tenant-00"}})
		default:
			writeJSON(w, http.StatusOK, ConfigureResponse{OK: true})
		}
	}))
	defer ts.Close()
	r, err := NewRouter(RouterConfig{Spec: testSpec(), Tenants: tenantIDs(1)}, []string{ts.Listener.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	wants := []struct {
		degraded bool
		brownout int
	}{{true, int(overload.StepHold)}, {false, 0}, {false, 0}}
	for i, want := range wants {
		if err := r.RunRound(); err != nil {
			t.Fatal(err)
		}
		st := r.TenantStates()[0]
		if st.Ticks != i+1 || st.Degraded != want.degraded || st.Brownout != want.brownout {
			t.Fatalf("round %d: router sees ticks %d degraded %v brownout %d, the shard answered %d/%v/%d",
				i+1, st.Ticks, st.Degraded, st.Brownout, i+1, want.degraded, want.brownout)
		}
	}
}

// countingFault counts attempts per op and lets every one through.
type countingFault struct{ attempts map[string]int }

func (f *countingFault) Intercept(op, _ string, _, _ int) (bool, time.Duration) {
	f.attempts[op]++
	return false, 0
}

// brownoutSchedule is a valid scripted schedule of n one-tick phases.
func brownoutSchedule(n int) []fleet.BrownoutPhase {
	sched := make([]fleet.BrownoutPhase, n)
	for i := range sched {
		sched[i] = fleet.BrownoutPhase{FromTick: 1000 + i, ToTick: 1001 + i, Step: overload.StepWarm}
	}
	return sched
}

// A body over maxRequestBytes gets a 413, which the client reports as a
// RemoteError and does not retry; the shard then ticks as if nothing had
// happened.
func TestOversizedRequestIsRefused(t *testing.T) {
	bundle := testBundle(t)
	_, addr := startShard(t, bundle, "", "")
	fault := &countingFault{attempts: map[string]int{}}
	c := NewClient(1, fault)
	if err := c.Configure(addr, testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(addr, "tenant-00", 0); err != nil {
		t.Fatal(err)
	}

	big := testSpec()
	big.Brownout = brownoutSchedule(maxRequestBytes / 40)
	if b, _ := json.Marshal(ConfigureRequest{Spec: big}); len(b) <= maxRequestBytes {
		t.Fatalf("the oversized spec encodes to %d bytes, not past the %d B cap", len(b), maxRequestBytes)
	}
	err := c.Configure(addr, big)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized configure: got %v, want a 413 RemoteError", err)
	}
	if !strings.Contains(re.Msg, fmt.Sprint(maxRequestBytes)) {
		t.Errorf("413 message %q does not name the cap", re.Msg)
	}
	if n := fault.attempts["configure"]; n != 2 {
		t.Errorf("%d configure attempts, want 1 each for the two calls: a 413 is not retried", n)
	}

	var resp TickResponse
	if err := c.Tick(addr, 2, &resp); err != nil {
		t.Fatalf("tick after the 413: %v", err)
	}
	if len(resp.Statuses) != 1 || resp.Statuses[0].Ticks != 2 {
		t.Fatalf("tick after the 413 answered %+v, want tenant-00 at 2 ticks", resp)
	}
}

// The cap is sized from the largest legitimate request: a configure whose
// Spec sets every field and scripts a thousand brownout phases fits under
// it, and a shard takes it.
func TestRequestCapHoldsTheLargestSpec(t *testing.T) {
	spec := Spec{
		App: "chain-4", Shape: "surge", Rate: maxRate, SurgeTo: maxRate, SurgeAtS: maxDurS,
		Seed: -1 << 63, TickS: maxDurS, WarmStart: true, Workers: maxWorkers, Trace: true,
		SLOBudget: &obs.SLOConfig{Budget: 0.999}, Brownout: brownoutSchedule(1000),
		DurS: maxDurS, SLOMS: 1 << 30, Forecast: "naive", HorizonTicks: 1 << 30, ForecastQuantile: 0.999,
		Lifecycle: true,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(ConfigureRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > maxRequestBytes {
		t.Fatalf("the largest spec encodes to %d bytes, past the %d B cap", len(b), maxRequestBytes)
	}
	s := &ShardServer{Bundle: testBundle(t)}
	if code := postGuarded(t, s.Handler(), "/v1/configure", b); code != http.StatusOK {
		t.Fatalf("configure with the largest spec (%d bytes): status %d", len(b), code)
	}
}
