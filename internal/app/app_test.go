package app

import (
	"math"
	"reflect"
	"testing"
)

func TestBuiltinsValidate(t *testing.T) {
	for _, a := range []*App{OnlineBoutique(), SocialNetwork(), RobotShop(), Bookinfo()} {
		if len(a.Services) == 0 || len(a.APIs) == 0 {
			t.Errorf("%s: empty app", a.Name)
		}
		if a.APIs[0].Root.Service == "" {
			t.Errorf("%s: no frontend", a.Name)
		}
	}
}

func TestOnlineBoutiqueShape(t *testing.T) {
	a := OnlineBoutique()
	if len(a.Services) != 6 {
		t.Fatalf("boutique has %d services, want 6 (MS1..MS6)", len(a.Services))
	}
	if a.APIs[0].Root.Service != "frontend" {
		t.Errorf("frontend = %q", a.APIs[0].Root.Service)
	}
	if len(a.APIs) != 3 {
		t.Errorf("boutique has %d APIs, want 3 (multi-API Locust mix)", len(a.APIs))
	}
	v := a.Visits("cart")
	if v["frontend"] != 1 {
		t.Errorf("cart page visits frontend %v times, want 1", v["frontend"])
	}
	if v["currency"] != 2 {
		t.Errorf("cart page visits currency %v times, want 2 (Count: 2)", v["currency"])
	}
	// productcatalog is hit directly and via recommendation.
	if v["productcatalog"] != 2 {
		t.Errorf("cart page visits productcatalog %v times, want 2", v["productcatalog"])
	}
}

func TestSocialNetworkShape(t *testing.T) {
	a := SocialNetwork()
	if len(a.Services) != 10 {
		t.Fatalf("social network has %d services, want 10 (MS1..MS10)", len(a.Services))
	}
	v := a.Visits("compose-post")
	for _, svc := range a.ServiceNames() {
		if v[svc] != 1 {
			t.Errorf("compose-post visits %s %v times, want 1", svc, v[svc])
		}
	}
	// nginx must be a parent of text; text a parent of url.
	parents := a.Parents()
	urlIdx := a.ServiceIndex("url")
	textIdx := a.ServiceIndex("text")
	found := false
	for _, p := range parents[urlIdx] {
		if p == textIdx {
			found = true
		}
	}
	if !found {
		t.Error("text is not a parent of url")
	}
}

func TestVisitsUnknownAPI(t *testing.T) {
	if OnlineBoutique().Visits("nope") != nil {
		t.Error("Visits of unknown API should be nil")
	}
}

func TestPerServiceRate(t *testing.T) {
	a := OnlineBoutique()
	rates := a.PerServiceRate(map[string]float64{"cart": 10})
	if rates["currency"] != 20 {
		t.Errorf("currency rate = %v, want 20 (10 qps × 2 visits)", rates["currency"])
	}
	if rates["frontend"] != 10 {
		t.Errorf("frontend rate = %v, want 10", rates["frontend"])
	}
	if rates["shipping"] != 10 {
		t.Errorf("shipping rate = %v, want 10", rates["shipping"])
	}
}

// Summation order must not follow map iteration: with non-round rates the
// last ulp of a shared service's rate would differ between calls, and with
// it the warm-start quotas of two constructions of the same tenant.
func TestPerServiceRateIsBitReproducible(t *testing.T) {
	a := OnlineBoutique() // three APIs sharing services
	// 77.7 req/s: about one summation order in four rounds differently.
	apiRates := a.MixRates(77.7)
	apiRates["no-such-api"] = 11.1
	want := a.PerServiceRate(apiRates)
	if len(want) != len(a.Services) {
		t.Fatalf("rates for %d services, want %d", len(want), len(a.Services))
	}
	for i := 0; i < 200; i++ {
		if got := a.PerServiceRate(apiRates); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: %v, first call %v", i, got, want)
		}
	}
}

func TestMixRates(t *testing.T) {
	a := OnlineBoutique()
	rates := a.MixRates(100)
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("mix rates sum to %v, want 100", sum)
	}
	if rates["cart"] <= rates["home"] {
		t.Errorf("cart mix (%v) should exceed home mix (%v)", rates["cart"], rates["home"])
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	a := Bookinfo()
	edges := a.Edges()
	want := []Edge{
		{"productpage", "details"},
		{"productpage", "reviews"},
		{"reviews", "ratings"},
	}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestParents(t *testing.T) {
	a := Bookinfo()
	parents := a.Parents()
	pp := a.ServiceIndex("productpage")
	if len(parents[pp]) != 0 {
		t.Errorf("productpage has parents %v, want none", parents[pp])
	}
	ratings := a.ServiceIndex("ratings")
	if len(parents[ratings]) != 1 || parents[ratings][0] != a.ServiceIndex("reviews") {
		t.Errorf("ratings parents = %v, want [reviews]", parents[ratings])
	}
}

func TestNewPanicsOnUnknownService(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on unknown service in API")
		}
	}()
	New("bad", []Service{{Name: "a"}}, []API{{Name: "x", Mix: 1, Root: seq("a", leaf("ghost"))}})
}

func TestNewPanicsOnDuplicateService(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on duplicate service")
		}
	}()
	New("bad", []Service{{Name: "a"}, {Name: "a"}}, []API{{Name: "x", Mix: 1, Root: leaf("a")}})
}

func TestRobotShopCurveOrdering(t *testing.T) {
	a := RobotShop()
	web := a.Services[a.ServiceIndex("web")]
	cat := a.Services[a.ServiceIndex("catalogue")]
	if cat.WorkMS <= web.WorkMS {
		t.Error("catalogue must have more CPU work than web for Fig 6's sharper curve")
	}
}
