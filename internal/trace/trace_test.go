package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// Duration returns the span's wall-clock time in seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// EndToEnd returns the end-to-end latency in seconds: the root span's
// duration (the root encloses all children, as in Jaeger).
func (t Trace) EndToEnd() float64 {
	best := 0.0
	for _, s := range t.Spans {
		if s.Parent == "" && s.Duration() > best {
			best = s.Duration()
		}
	}
	return best
}

// Visits returns how many times each service appears in the trace.
func (t Trace) Visits() map[string]int {
	m := make(map[string]int)
	for _, s := range t.Spans {
		m[s.Service]++
	}
	return m
}

// APIs returns the API names seen, sorted.
func (c *Collector) APIs() []string {
	names := make([]string, 0, len(c.byAPI))
	for k := range c.byAPI {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Recorder keeps copies of whole traces, spans included — the last Cap per
// API, 0 for all — as the reference the collector's rings are checked
// against.
type Recorder struct {
	Cap   int
	byAPI map[string][]Trace
}

// Record copies t, which its producer may reuse once Record returns.
func (r *Recorder) Record(t *Trace) {
	if r.byAPI == nil {
		r.byAPI = make(map[string][]Trace)
	}
	kept := *t
	kept.Spans = append([]Span(nil), t.Spans...)
	list := append(r.byAPI[t.API], kept)
	if r.Cap > 0 && len(list) > r.Cap {
		list = list[1:]
	}
	r.byAPI[t.API] = list
}

// Traces returns the recorded traces of api, oldest first.
func (r *Recorder) Traces(api string) []Trace { return r.byAPI[api] }

// Edges returns the set of caller→callee pairs recorded for api. The GNN's
// message-passing structure is "constructed from microservices tracing data"
// (§3.4); this is that construction.
func (r *Recorder) Edges(api string) map[[2]string]bool {
	out := make(map[[2]string]bool)
	for _, t := range r.byAPI[api] {
		for _, s := range t.Spans {
			if s.Parent != "" {
				out[[2]string{s.Parent, s.Service}] = true
			}
		}
	}
	return out
}

// collect gives c the visit counts of tr's spans, as the cluster counts a
// request's invocations.
func collect(c *Collector, tr Trace) {
	visits := make([]int32, len(c.svcs))
	for _, s := range tr.Spans {
		visits[slices.Index(c.svcs, s.Service)]++
	}
	c.Collect(tr.API, visits)
}

func mkTrace(id int64, api string, e2e float64, visits map[string]int) Trace {
	t := Trace{ID: id, API: api}
	t.Spans = append(t.Spans, Span{Service: "frontend", Start: 0, End: e2e})
	for svc, n := range visits {
		for i := 0; i < n; i++ {
			t.Spans = append(t.Spans, Span{Service: svc, Parent: "frontend", Start: 0.001, End: e2e / 2})
		}
	}
	return t
}

func TestEndToEnd(t *testing.T) {
	tr := mkTrace(1, "cart", 0.25, map[string]int{"cart": 1})
	if got := tr.EndToEnd(); got != 0.25 {
		t.Errorf("EndToEnd = %v, want 0.25", got)
	}
}

func TestVisits(t *testing.T) {
	tr := mkTrace(1, "cart", 0.1, map[string]int{"cart": 2, "currency": 3})
	v := tr.Visits()
	if v["cart"] != 2 || v["currency"] != 3 || v["frontend"] != 1 {
		t.Errorf("Visits = %v", v)
	}
}

func TestCollectorCap(t *testing.T) {
	c := NewCollector(5, []string{"frontend", "cart"})
	rec := &Recorder{Cap: 5}
	for i := 0; i < 10; i++ {
		// The first five visit "cart" twice, the five that evict them once.
		tr := mkTrace(int64(i), "cart", 0.1, map[string]int{"cart": 2 - i/5})
		collect(c, tr)
		rec.Record(&tr)
	}
	if p := c.VisitProfile("cart", 1, nil); p["cart"] != 1 {
		t.Errorf("most visits to cart among the retained = %v, want 1: the oldest five were not evicted", p["cart"])
	}
	// Oldest evicted: remaining IDs are 5..9.
	if got := rec.Traces("cart"); len(got) != 5 {
		t.Errorf("recorder retained %d traces, want 5", len(got))
	} else if got[0].ID != 5 {
		t.Errorf("oldest recorded ID = %d, want 5", got[0].ID)
	}
}

func TestVisitProfile(t *testing.T) {
	c := NewCollector(0, []string{"frontend", "cart"})
	// 10 traces: 9 visit "cart" once, 1 visits it 5 times.
	for i := 0; i < 9; i++ {
		collect(c, mkTrace(int64(i), "cart", 0.1, map[string]int{"cart": 1}))
	}
	collect(c, mkTrace(99, "cart", 0.1, map[string]int{"cart": 5}))
	p := c.VisitProfile("cart", 0.90, nil)
	if p["cart"] != 1 {
		t.Errorf("p90 cart visits = %v, want 1", p["cart"])
	}
	p = c.VisitProfile("cart", 0.99, nil)
	if p["cart"] != 5 {
		t.Errorf("p99 cart visits = %v, want 5", p["cart"])
	}
	if p["frontend"] != 1 {
		t.Errorf("frontend visits = %v, want 1", p["frontend"])
	}
}

func TestVisitProfileMissingService(t *testing.T) {
	c := NewCollector(0, []string{"frontend", "rare"})
	// Service "rare" appears in only 1 of 10 traces → p90 visits 0 or more
	// depending on rank; must not be reported as always-visited.
	for i := 0; i < 9; i++ {
		collect(c, mkTrace(int64(i), "home", 0.1, nil))
	}
	collect(c, mkTrace(9, "home", 0.1, map[string]int{"rare": 1}))
	p := c.VisitProfile("home", 0.5, nil)
	if p["rare"] != 0 {
		t.Errorf("median visits for rare service = %v, want 0", p["rare"])
	}
}

// visitProfileReference is VisitProfile as it was first written: one float
// per trace per service, zero-padded, sorted, nearest rank. The collector,
// which keeps no traces, must return exactly this.
func visitProfileReference(traces []Trace, q float64) map[string]float64 {
	if len(traces) == 0 {
		return nil
	}
	counts := make(map[string][]float64)
	for _, t := range traces {
		for svc, n := range t.Visits() {
			counts[svc] = append(counts[svc], float64(n))
		}
	}
	out := make(map[string]float64, len(counts))
	for svc, vals := range counts {
		for len(vals) < len(traces) {
			vals = append(vals, 0)
		}
		sort.Float64s(vals)
		rank := int(math.Ceil(q * float64(len(vals))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(vals) {
			rank = len(vals)
		}
		out[svc] = vals[rank-1]
	}
	return out
}

func TestVisitProfileMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	services := []string{"frontend", "cart", "currency", "catalog", "shipping", "ads"}
	var kept map[string]float64
	for set := 0; set < 200; set++ {
		c, rec := NewCollector(0, services), &Recorder{}
		for id, n := 0, 1+rng.Intn(40); id < n; id++ {
			tr := Trace{ID: int64(id), API: "home"}
			// Each service is absent from some traces, rarely visited in
			// others; spans of different services interleave.
			for _, svc := range services[:1+rng.Intn(len(services))] {
				for v := rng.Intn(5) * rng.Intn(2); v > 0; v-- {
					tr.Spans = append(tr.Spans, Span{Service: svc})
				}
			}
			rng.Shuffle(len(tr.Spans), func(i, j int) { tr.Spans[i], tr.Spans[j] = tr.Spans[j], tr.Spans[i] })
			collect(c, tr)
			rec.Record(&tr)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			got, want := c.VisitProfile("home", q, nil), visitProfileReference(rec.Traces("home"), q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("set %d q=%v: VisitProfile = %v, sort reference = %v", set, q, got, want)
			}
			// Refilled, the previous set's map keeps none of its entries.
			if kept = c.VisitProfile("home", q, kept); !reflect.DeepEqual(kept, want) {
				t.Fatalf("set %d q=%v: VisitProfile into a used map = %v, sort reference = %v", set, q, kept, want)
			}
		}
	}
	if p := NewCollector(0, services).VisitProfile("home", 0.9, nil); p != nil {
		t.Errorf("no traces: VisitProfile = %v, want nil", p)
	}
}

// distinctVectors counts the different visit vectors among traces.
func distinctVectors(traces []Trace) int {
	seen := map[string]bool{}
	for _, tr := range traces {
		seen[fmt.Sprint(tr.Visits())] = true
	}
	return len(seen)
}

// runsOf counts the runs of consecutive traces with the same visit vector.
func runsOf(traces []Trace) int {
	runs := 0
	for i, tr := range traces {
		if i == 0 || fmt.Sprint(tr.Visits()) != fmt.Sprint(traces[i-1].Visits()) {
			runs++
		}
	}
	return runs
}

// checkRing fails unless api's ring holds as many traces as want, one run per
// run of equal visit vectors among them, one vector per distinct visit vector
// and as many references as traces.
func checkRing(t *testing.T, c *Collector, api string, want []Trace) {
	t.Helper()
	r := c.byAPI[api]
	if r == nil {
		if len(want) != 0 {
			t.Fatalf("no ring for %s, want %d traces", api, len(want))
		}
		return
	}
	refs, inUse, inRuns := 0, 0, 0
	for _, v := range r.vecs {
		refs += v.refs
		if v.refs > 0 {
			inUse++
		}
	}
	for i := 0; i < r.nruns; i++ {
		inRuns += int(r.runs[(r.head+i)%len(r.runs)].n)
	}
	if r.n != len(want) || refs != len(want) || inRuns != len(want) {
		t.Fatalf("%s: %d traces retained in runs of %d with %d vector references, want %d", api, r.n, inRuns, refs, len(want))
	}
	if want := runsOf(want); r.nruns != want {
		t.Fatalf("%s: %d runs, want %d", api, r.nruns, want)
	}
	if want := distinctVectors(want); inUse != want {
		t.Fatalf("%s: %d vectors in use, want %d", api, inUse, want)
	}
}

// The ring must count exactly the traces a slice that appends and re-slices
// to its last Cap entries retains — the Recorder — before and after
// wrap-around, while the producer builds every trace in one array. Traces run
// a fixed call tree in which any call may fail and leave no span, so a ring
// holds a few visit vectors, shared, that come and go as it wraps.
func TestRingMatchesSliceCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trees := map[string][]string{
		"home": {"frontend", "catalog", "currency", "catalog"},
		"cart": {"frontend", "cart", "currency", "currency", "catalog", "shipping"},
	}
	apis := []string{"home", "cart"}
	services := []string{"frontend", "catalog", "currency", "cart", "shipping"}
	for _, limit := range []int{0, 1, 3, 8} {
		c, rec := NewCollector(limit, services), &Recorder{Cap: limit}
		var spans []Span
		for id := int64(0); id < 120; id++ {
			api := apis[rng.Intn(len(apis))]
			failP := []float64{0, 0.1, 0.5}[id/40] // none fail, then few, then half
			spans = spans[:0]
			for i, svc := range trees[api] {
				if i > 0 && rng.Float64() < failP {
					continue
				}
				spans = append(spans, Span{Service: svc, Parent: trees[api][0]})
			}
			tr := Trace{ID: id, API: api, Spans: spans}
			collect(c, tr)
			rec.Record(&tr)

			for _, api := range apis {
				want := rec.Traces(api)
				if limit > 0 && len(want) > limit {
					t.Fatalf("cap %d after %d: recorder holds %d traces of %s", limit, id, len(want), api)
				}
				checkRing(t, c, api, want)
				for _, q := range []float64{0.5, 0.9, 1} {
					if got, want := c.VisitProfile(api, q, nil), visitProfileReference(want, q); !reflect.DeepEqual(got, want) {
						t.Fatalf("cap %d after %d: VisitProfile(%s, %v) = %v, want %v", limit, id, api, q, got, want)
					}
				}
			}
		}
	}
}

// However the visit vectors vary — here no two traces in a row of 10 000 have
// the same — the table holds no more of them than the ring holds traces, and
// reuses the entries eviction frees.
func TestVectorTableIsBoundedByCap(t *testing.T) {
	const limit = 64
	services := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	c, rec := NewCollector(limit, services), &Recorder{Cap: limit}
	var spans []Span
	for id := 0; id < 10000; id++ {
		spans = spans[:0]
		for i, n := 0, id%6561; i < len(services); i, n = i+1, n/3 { // id in base 3: visits per service
			for v := n % 3; v > 0; v-- {
				spans = append(spans, Span{Service: services[i]})
			}
		}
		tr := Trace{ID: int64(id), API: "x", Spans: spans}
		collect(c, tr)
		rec.Record(&tr)
		if r := c.byAPI["x"]; len(r.vecs) > limit {
			t.Fatalf("after %d traces the table has %d vectors, want ≤ %d", id+1, len(r.vecs), limit)
		}
	}
	checkRing(t, c, "x", rec.Traces("x"))
	if n := distinctVectors(rec.Traces("x")); n != limit {
		t.Fatalf("the stream repeated itself: %d distinct vectors among the last %d traces", n, limit)
	}
	if got, want := c.VisitProfile("x", 0.9, nil), visitProfileReference(rec.Traces("x"), 0.9); !reflect.DeepEqual(got, want) {
		t.Errorf("VisitProfile = %v, want %v", got, want)
	}
}

// fullRings returns a collector whose three rings of limit traces have each
// wrapped: APIs of 3, 5 and 8 spans, as OnlineBoutique's are, the largest
// visiting one service three times and now and then failing to reach another.
func fullRings(limit int) (*Collector, *Recorder, []string) {
	apis := map[string][]string{
		"home":    {"recommend", "catalog", "frontend"},
		"product": {"catalog", "currency", "ads", "recommend", "frontend"},
		"cart":    {"currency", "currency", "cart", "currency", "catalog", "shipping", "checkout", "frontend"},
	}
	c := NewCollector(limit, []string{"frontend", "recommend", "catalog", "currency", "ads", "cart", "shipping", "checkout"})
	rec := &Recorder{Cap: limit}
	names := []string{"cart", "home", "product"}
	for id := 0; id < 3*2*limit; id++ {
		api := names[id%3]
		tr := Trace{ID: int64(id), API: api}
		for _, svc := range apis[api] {
			if svc == "shipping" && id%7 == 0 {
				continue
			}
			tr.Spans = append(tr.Spans, Span{Service: svc})
		}
		collect(c, tr)
		rec.Record(&tr)
	}
	return c, rec, names
}

// A ring whose traces all share one visit vector holds one run and one
// vector, however many traces it retains.
func TestRingOfOneVectorIsOneRun(t *testing.T) {
	c, _, _ := fullRings(4096)
	for _, api := range []string{"home", "product"} {
		if r := c.byAPI[api]; r.n != 4096 || r.nruns != 1 || len(r.vecs) != 1 || len(r.runs) > 4 {
			t.Errorf("%s: %d traces in %d runs (%d allocated) of %d vectors, want 4096 in one run of one vector", api, r.n, r.nruns, len(r.runs), len(r.vecs))
		}
	}
}

// The profile is read off the table of distinct visit vectors Collect
// maintains: its cost does not depend on how many traces the ring holds.
func TestVisitProfileCostIsIndependentOfRingSize(t *testing.T) {
	for _, limit := range []int{16, 4096} {
		c, rec, names := fullRings(limit)
		for _, api := range names {
			if got, want := c.VisitProfile(api, 0.9, nil), visitProfileReference(rec.Traces(api), 0.9); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d: VisitProfile(%s) = %v, recount = %v", limit, api, got, want)
			}
		}
		if n := testing.AllocsPerRun(20, func() {
			for _, api := range names {
				c.VisitProfile(api, 0.9, nil)
			}
		}); n > 6 {
			t.Errorf("cap %d: three profiles allocate %v objects, want ≤ 6 (the maps returned)", limit, n)
		}
		kept := map[string]map[string]float64{}
		refill := func() {
			for _, api := range names {
				kept[api] = c.VisitProfile(api, 0.9, kept[api])
			}
		}
		refill()
		if n := testing.AllocsPerRun(20, refill); n != 0 {
			t.Errorf("cap %d: three profiles refilled into their own maps allocate %v objects, want 0", limit, n)
		}
	}
}

// What core.Analyzer.Refresh costs on every solve and lifecycle tick: one
// profile per API over three full rings of the default TraceCap.
func BenchmarkVisitProfile(b *testing.B) {
	c, _, names := fullRings(4096)
	kept := map[string]map[string]float64{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, api := range names {
			kept[api] = c.VisitProfile(api, 0.9, kept[api])
		}
	}
}

func TestEdges(t *testing.T) {
	var rec Recorder
	tr := Trace{ID: 1, API: "post"}
	tr.Spans = []Span{
		{Service: "nginx", Parent: ""},
		{Service: "text", Parent: "nginx"},
		{Service: "url", Parent: "text"},
	}
	rec.Record(&tr)
	tr.Spans[2] = Span{Service: "media", Parent: "nginx"} // the recorder kept a copy
	e := rec.Edges("post")
	if !e[[2]string{"nginx", "text"}] || !e[[2]string{"text", "url"}] {
		t.Errorf("Edges = %v", e)
	}
	if len(e) != 2 {
		t.Errorf("len(Edges) = %d, want 2", len(e))
	}
	if e := rec.Edges("get"); len(e) != 0 {
		t.Errorf("Edges of an API never recorded = %v", e)
	}
}

func TestAPIsSorted(t *testing.T) {
	c := NewCollector(0, nil)
	for _, api := range []string{"z", "a", "m"} {
		c.Collect(api, nil)
	}
	got := fmt.Sprint(c.APIs())
	if got != "[a m z]" {
		t.Errorf("APIs = %v", got)
	}
}
