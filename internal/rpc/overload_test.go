package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"graf/internal/chaos"
	"graf/internal/fleet"
	"graf/internal/overload"
)

// TestClientOpBudgetBoundsElapsed pins the end-to-end budget contract: under
// injected per-attempt latency, a call under a SetDeadline budget returns
// within the budget (plus one attempt's slack — an in-flight attempt is
// cancelled by context, not abandoned instantly), fails typed with
// errBudgetExhausted, and every attempt that did go out carried a positive,
// non-increasing Graf-Deadline-Ms budget.
func TestClientOpBudgetBoundsElapsed(t *testing.T) {
	var mu sync.Mutex
	var headers []int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get(overload.HeaderDeadlineMS); h != "" {
			ms, err := strconv.ParseInt(h, 10, 64)
			if err != nil {
				t.Errorf("malformed deadline header %q: %v", h, err)
			}
			mu.Lock()
			headers = append(headers, ms)
			mu.Unlock()
		}
		// Injected latency, then a connection drop: the client sees a slow
		// transport failure and retries until the budget refuses.
		time.Sleep(100 * time.Millisecond)
		hj, _ := w.(http.Hijacker)
		conn, _, _ := hj.Hijack()
		conn.Close()
	}))
	defer ts.Close()
	shard := strings.TrimPrefix(ts.URL, "http://")

	// Three 100 ms attempts fill the budget: the budget stops the loop, not
	// retry exhaustion (1+retries attempts) and not transportAttempts (the
	// third failure reaches it, but the budget refuses the fourth attempt
	// first).
	const budget = 300 * time.Millisecond
	c := newClient(1, nil)

	start := time.Now()
	c.SetDeadline(start.Add(budget))
	err := c.call(shard, http.MethodGet, "/healthz", "health", nil, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, errBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	// Slack: one in-flight attempt (100ms injected latency) plus scheduling
	// noise. The point is that elapsed tracks the budget, not retries × the
	// attempt timeout.
	if elapsed > budget+500*time.Millisecond {
		t.Fatalf("call took %v with a %v budget", elapsed, budget)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(headers) == 0 {
		t.Fatal("no attempt carried the deadline header")
	}
	for i, ms := range headers {
		if ms <= 0 || time.Duration(ms)*time.Millisecond > budget {
			t.Errorf("attempt %d: remaining budget %dms outside (0, %v]", i, ms, budget)
		}
		if i > 0 && ms > headers[i-1] {
			t.Errorf("attempt %d: remaining budget grew %dms -> %dms", i, headers[i-1], ms)
		}
	}
}

// TestShardAdmissionShedsTyped exercises the shard-side overload shield:
// a full gate sheds low-priority reads with the typed 429 verdict, critical
// endpoints keep answering (and report the overload accounting), the
// client reaches the shard as soon as capacity returns, and a request arriving with
// an already-expired propagated deadline is refused with the typed 504
// before any work happens.
func TestShardAdmissionShedsTyped(t *testing.T) {
	bundle := testBundle(t)
	s, addr := startShard(t, bundle, "", "")
	s.MaxInflight = 1 // before the first request builds the gate
	c := newClient(1, nil)
	if err := c.Configure(addr, testSpec()); err != nil {
		t.Fatal(err)
	}

	release, err := s.admission().Enter(overload.PriHigh)
	if err != nil {
		t.Fatal(err)
	}
	_, terr := c.Tenants(addr)
	if !isOverloaded(terr) {
		t.Fatalf("full gate: want typed overloaded error, got %v", terr)
	}
	var re *remoteError
	if errors.As(terr, &re) && re.RetryAfterMS <= 0 {
		t.Errorf("overloaded verdict carries no Retry-After hint: %+v", re)
	}

	h, err := c.Health(addr)
	if err != nil {
		t.Fatalf("critical endpoint shed under load: %v", err)
	}
	if h.Shed == 0 {
		t.Errorf("health reports no sheds after a shed: %+v", h)
	}
	if h.ExpiredExecuted != 0 {
		t.Errorf("expired work executed: %+v", h)
	}

	// Once capacity returns, the same client reaches the shard immediately.
	release()
	if _, err := c.Tenants(addr); err != nil {
		t.Errorf("tenants after release: %v", err)
	}

	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/v1/tenants", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(overload.HeaderDeadlineMS, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || !er.Expired {
		t.Fatalf("expired deadline verdict not typed: %+v (err %v)", er, err)
	}
	h2, err := c.Health(addr)
	if err != nil {
		t.Fatal(err)
	}
	if h2.ExpiredShed == 0 {
		t.Errorf("health reports no expired sheds: %+v", h2)
	}
	if h2.ExpiredExecuted != 0 {
		t.Errorf("expired work executed: %+v", h2)
	}
}

// TestRouterOverloadDrillByteIdentical is the end-to-end overload drill: a
// 2-shard fleet with a scripted brownout window runs budgeted rounds through
// an injected latency burst. The burst must be absorbed as SHED ticks and
// partial rounds — never escalated into shard recovery — no expired work may
// execute, and after Settle catches the shed shards up, every tenant's audit
// log must be byte-identical to the unbudgeted single-process reference.
func TestRouterOverloadDrillByteIdentical(t *testing.T) {
	bundle := testBundle(t)
	audit := t.TempDir()
	_, addr1 := startShard(t, bundle, "", audit)
	_, addr2 := startShard(t, bundle, "", audit)

	spec := testSpec()
	spec.Brownout = []fleet.BrownoutPhase{{FromTick: 3, ToTick: 6, Step: overload.StepHeuristic}}
	ids := tenantIDs(6)
	const rounds = 10

	// Overload burst: rounds 4-5 every tick attempt eats 600ms of injected
	// latency — far past the 250ms round budget, so those ticks must shed.
	inj := chaos.NewNetInjector(chaos.NetScenario{
		Seed: 21,
		Events: []chaos.NetEvent{
			{Kind: chaos.NetDelay, FromRound: 4, ToRound: 5, Op: "tick", P: 1, DelayMS: 600},
		},
	})
	r, err := NewRouter(RouterConfig{
		Spec: spec, Tenants: ids, Fault: inj,
		RoundBudget: 250 * time.Millisecond,
		Logf:        t.Logf,
	}, []string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := runRounds(r, rounds); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.ShedTicks == 0 || st.PartialRounds == 0 {
		t.Fatalf("stats %+v: overload burst shed nothing", st)
	}
	if st.Respawns != 0 || st.Reassignments != 0 {
		t.Fatalf("stats %+v: shed ticks escalated into shard recovery", st)
	}
	if st.Rounds != rounds {
		t.Fatalf("stats %+v: partial rounds did not count as completed", st)
	}

	if err := r.Settle(); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{addr1, addr2} {
		h, err := r.Client().Health(a)
		if err != nil {
			t.Fatal(err)
		}
		if h.ExpiredExecuted != 0 {
			t.Errorf("shard %s executed %d expired requests", a, h.ExpiredExecuted)
		}
	}

	want := referenceAudit(t, bundle, spec, ids, rounds)
	for _, ts := range r.TenantStates() {
		if ts.Ticks != rounds {
			t.Errorf("tenant %s: %d/%d ticks after settle", ts.ID, ts.Ticks, rounds)
		}
		b, err := os.ReadFile(filepath.Join(audit, fleet.SanitizeID(ts.ID)+".jsonl"))
		if err != nil {
			t.Fatalf("tenant %s: %v", ts.ID, err)
		}
		if !bytes.Equal(b, want[ts.ID]) {
			t.Errorf("tenant %s: audit log differs from reference across shed rounds + brownout (%d vs %d bytes)",
				ts.ID, len(b), len(want[ts.ID]))
		}
	}
}

// A budgeted drill settles before it judges: every tick of the final round
// eats 600ms of injected latency against a 250ms budget and is shed, so
// without Router.Settle the verdict reads every tenant BEHIND and its audit
// log one round short of the reference.
func TestDrillSettlesBudgetedRun(t *testing.T) {
	const rounds = 4
	d := testDrill(t, 4, rounds)
	d.Logf = t.Logf
	d.RoundBudget = 250 * time.Millisecond
	d.Schedule.Net = chaos.NetScenario{Seed: 3, Events: []chaos.NetEvent{
		{Kind: chaos.NetDelay, FromRound: rounds, Op: "tick", P: 1, DelayMS: 600},
	}}
	v, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Err(); err != nil {
		t.Fatalf("verdict: %v\n%s", err, v)
	}
	if st := v.Stats; st.ShedTicks == 0 || st.PartialRounds != 1 || st.Rounds != rounds {
		t.Fatalf("stats %+v: want the final round, and only it, shed", st)
	}
}
