package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func mkTrace(id int64, api string, e2e float64, visits map[string]int) Trace {
	t := Trace{ID: id, API: api}
	t.Spans = append(t.Spans, Span{TraceID: id, API: api, Service: "frontend", Start: 0, End: e2e})
	for svc, n := range visits {
		for i := 0; i < n; i++ {
			t.Spans = append(t.Spans, Span{TraceID: id, API: api, Service: svc, Parent: "frontend", Start: 0.001, End: e2e / 2})
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
	c := NewCollector(5)
	for i := 0; i < 10; i++ {
		c.Collect(mkTrace(int64(i), "cart", 0.1, nil))
	}
	if len(c.Traces("cart")) != 5 {
		t.Errorf("retained %d traces, want 5", len(c.Traces("cart")))
	}
	if c.Total() != 10 {
		t.Errorf("Total = %d, want 10", c.Total())
	}
	// Oldest evicted: remaining IDs are 5..9.
	if c.Traces("cart")[0].ID != 5 {
		t.Errorf("oldest retained ID = %d, want 5", c.Traces("cart")[0].ID)
	}
}

func TestVisitProfile(t *testing.T) {
	c := NewCollector(0)
	// 10 traces: 9 visit "cart" once, 1 visits it 5 times.
	for i := 0; i < 9; i++ {
		c.Collect(mkTrace(int64(i), "cart", 0.1, map[string]int{"cart": 1}))
	}
	c.Collect(mkTrace(99, "cart", 0.1, map[string]int{"cart": 5}))
	p := c.VisitProfile("cart", 0.90)
	if p["cart"] != 1 {
		t.Errorf("p90 cart visits = %v, want 1", p["cart"])
	}
	p = c.VisitProfile("cart", 0.99)
	if p["cart"] != 5 {
		t.Errorf("p99 cart visits = %v, want 5", p["cart"])
	}
	if p["frontend"] != 1 {
		t.Errorf("frontend visits = %v, want 1", p["frontend"])
	}
}

func TestVisitProfileMissingService(t *testing.T) {
	c := NewCollector(0)
	// Service "rare" appears in only 1 of 10 traces → p90 visits 0 or more
	// depending on rank; must not be reported as always-visited.
	for i := 0; i < 9; i++ {
		c.Collect(mkTrace(int64(i), "home", 0.1, nil))
	}
	c.Collect(mkTrace(9, "home", 0.1, map[string]int{"rare": 1}))
	p := c.VisitProfile("home", 0.5)
	if p["rare"] != 0 {
		t.Errorf("median visits for rare service = %v, want 0", p["rare"])
	}
}

// visitProfileReference is VisitProfile as it was first written: one float
// per trace per service, zero-padded, sorted, nearest rank. The histogram
// version must return exactly this.
func visitProfileReference(c *Collector, api string, q float64) map[string]float64 {
	traces := c.Traces(api)
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
	for set := 0; set < 200; set++ {
		c := NewCollector(0)
		for id, n := 0, 1+rng.Intn(40); id < n; id++ {
			tr := Trace{ID: int64(id), API: "home"}
			// Each service is absent from some traces, rarely visited in
			// others; spans of different services interleave.
			for _, svc := range services[:1+rng.Intn(len(services))] {
				for v := rng.Intn(5) * rng.Intn(2); v > 0; v-- {
					tr.Spans = append(tr.Spans, Span{TraceID: tr.ID, API: tr.API, Service: svc})
				}
			}
			rng.Shuffle(len(tr.Spans), func(i, j int) { tr.Spans[i], tr.Spans[j] = tr.Spans[j], tr.Spans[i] })
			c.Collect(tr)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			got, want := c.VisitProfile("home", q), visitProfileReference(c, "home", q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("set %d q=%v: VisitProfile = %v, sort reference = %v", set, q, got, want)
			}
		}
	}
	if p := NewCollector(0).VisitProfile("home", 0.9); p != nil {
		t.Errorf("no traces: VisitProfile = %v, want nil", p)
	}
}

// The ring must retain exactly what a slice that appends and re-slices to
// its last Cap entries retains, present it oldest first, and derive the same
// statistics from it, before and after wrap-around, while the producer
// builds each new trace in the array the ring last evicted.
func TestRingMatchesSliceCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	services := []string{"frontend", "cart", "currency", "catalog"}
	apis := []string{"home", "cart"}
	for _, limit := range []int{0, 1, 3, 8} {
		c := NewCollector(limit)
		ref := map[string][]Trace{} // the slice implementation
		recycled := 0
		for id := int64(0); id < 60; id++ {
			api := apis[rng.Intn(len(apis))]
			tr := Trace{ID: id, API: api, Spans: c.Spare(api)}
			if tr.Spans != nil {
				recycled++
			}
			for n := 1 + rng.Intn(6); n > 0; n-- {
				tr.Spans = append(tr.Spans, Span{
					TraceID: id, API: api,
					Service: services[rng.Intn(len(services))],
					Parent:  services[rng.Intn(len(services))],
				})
			}
			c.Collect(tr)
			list := append(ref[api], tr)
			if limit > 0 && len(list) > limit {
				list = list[len(list)-limit:]
			}
			ref[api] = list

			for _, api := range apis {
				got, want := c.Traces(api), ref[api]
				if len(got) != len(want) {
					t.Fatalf("cap %d after %d: %d traces of %s retained, want %d", limit, id, len(got), api, len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("cap %d after %d: Traces(%s)[%d] = %+v, want %+v", limit, id, api, i, got[i], want[i])
					}
				}
				slice := NewCollector(0)
				for _, tr := range want {
					slice.Collect(tr)
				}
				if got, want := c.VisitProfile(api, 0.9), visitProfileReference(slice, api, 0.9); !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d after %d: VisitProfile(%s) = %v, want %v", limit, id, api, got, want)
				}
				if got, want := c.Edges(api), slice.Edges(api); !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d after %d: Edges(%s) = %v, want %v", limit, id, api, got, want)
				}
			}
		}
		if c.Total() != 60 {
			t.Errorf("cap %d: Total = %d, want 60", limit, c.Total())
		}
		if (limit == 0) != (recycled == 0) {
			t.Errorf("cap %d: %d traces were built in recycled arrays", limit, recycled)
		}
	}
}

// fullRings returns a collector whose three rings of limit traces have each
// wrapped: APIs of 3, 5 and 8 spans, as OnlineBoutique's are, the largest
// visiting one service three times and now and then failing to reach another.
func fullRings(limit int) (*Collector, []string) {
	apis := map[string][]string{
		"home":    {"recommend", "catalog", "frontend"},
		"product": {"catalog", "currency", "ads", "recommend", "frontend"},
		"cart":    {"currency", "currency", "cart", "currency", "catalog", "shipping", "checkout", "frontend"},
	}
	c := NewCollector(limit)
	names := []string{"cart", "home", "product"}
	for id := 0; id < 3*2*limit; id++ {
		api := names[id%3]
		tr := Trace{ID: int64(id), API: api, Spans: c.Spare(api)}
		for _, svc := range apis[api] {
			if svc == "shipping" && id%7 == 0 {
				continue
			}
			tr.Spans = append(tr.Spans, Span{TraceID: tr.ID, API: api, Service: svc})
		}
		c.Collect(tr)
	}
	return c, names
}

// The profile is read off the histograms Collect maintains: its cost does not
// depend on how many traces the ring holds.
func TestVisitProfileCostIsIndependentOfRingSize(t *testing.T) {
	for _, limit := range []int{16, 4096} {
		c, names := fullRings(limit)
		for _, api := range names {
			if got, want := c.VisitProfile(api, 0.9), visitProfileReference(c, api, 0.9); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d: VisitProfile(%s) = %v, recount = %v", limit, api, got, want)
			}
		}
		if n := testing.AllocsPerRun(20, func() {
			for _, api := range names {
				c.VisitProfile(api, 0.9)
			}
		}); n > 6 {
			t.Errorf("cap %d: three profiles allocate %v objects, want ≤ 6 (the maps returned)", limit, n)
		}
	}
}

// What core.Analyzer.Refresh costs on every solve and lifecycle tick: one
// profile per API over three full rings of the default TraceCap.
func BenchmarkVisitProfile(b *testing.B) {
	c, names := fullRings(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, api := range names {
			sink = c.VisitProfile(api, 0.9)
		}
	}
}

var sink map[string]float64

func TestEdges(t *testing.T) {
	c := NewCollector(0)
	tr := Trace{ID: 1, API: "post"}
	tr.Spans = []Span{
		{Service: "nginx", Parent: ""},
		{Service: "text", Parent: "nginx"},
		{Service: "url", Parent: "text"},
	}
	c.Collect(tr)
	e := c.Edges("post")
	if !e[[2]string{"nginx", "text"}] || !e[[2]string{"text", "url"}] {
		t.Errorf("Edges = %v", e)
	}
	if len(e) != 2 {
		t.Errorf("len(Edges) = %d, want 2", len(e))
	}
	all := c.AllEdges()
	if len(all) != 2 {
		t.Errorf("AllEdges = %v", all)
	}
}

func TestAPIsSorted(t *testing.T) {
	c := NewCollector(0)
	for _, api := range []string{"z", "a", "m"} {
		c.Collect(Trace{API: api})
	}
	got := fmt.Sprint(c.APIs())
	if got != "[a m z]" {
		t.Errorf("APIs = %v", got)
	}
}

func TestReset(t *testing.T) {
	c := NewCollector(0)
	c.Collect(mkTrace(1, "cart", 0.1, nil))
	c.Reset()
	if len(c.Traces("cart")) != 0 {
		t.Error("Reset did not clear traces")
	}
	if c.Total() != 1 {
		t.Error("Reset must keep the total counter")
	}
}
