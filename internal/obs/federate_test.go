package obs

import (
	"strings"
	"testing"
)

func TestRelabelSample(t *testing.T) {
	cases := []struct{ in, shard, want string }{
		{`graf_up 1`, "127.0.0.1:9001", `graf_up{shard="127.0.0.1:9001"} 1`},
		{`graf_reqs{op="tick"} 4`, "a", `graf_reqs{shard="a",op="tick"} 4`},
		{`graf_empty{} 0`, "a", `graf_empty{shard="a"} 0`},
		{`graf_up 1`, "", `graf_up 1`},
		{`graf_weird{v="x"} 2`, `sh"ard\`, `graf_weird{shard="sh\"ard\\",v="x"} 2`},
	}
	for _, c := range cases {
		if got := relabelSample(c.in, c.shard); got != c.want {
			t.Errorf("relabelSample(%q, %q) = %q, want %q", c.in, c.shard, got, c.want)
		}
	}
}

// TestMergeExpositions merges two shards sharing a family with a
// router-local family: one header per family, per-shard children, families
// in first-seen order.
func TestMergeExpositions(t *testing.T) {
	router := "# HELP graf_router_rounds_total Completed rounds.\n" +
		"# TYPE graf_router_rounds_total counter\n" +
		"graf_router_rounds_total 12\n"
	shardPage := func(v string) string {
		return "# HELP graf_fleet_ticks_total Tenant ticks.\n" +
			"# TYPE graf_fleet_ticks_total counter\n" +
			"graf_fleet_ticks_total " + v + "\n"
	}
	got := MergeExpositions([]Exposition{
		{Shard: "", Text: router},
		{Shard: "127.0.0.1:9001", Text: shardPage("40")},
		{Shard: "127.0.0.1:9002", Text: shardPage("41")},
	})

	if n := strings.Count(got, "# TYPE graf_fleet_ticks_total"); n != 1 {
		t.Errorf("shared family has %d TYPE headers, want 1:\n%s", n, got)
	}
	for _, want := range []string{
		"graf_router_rounds_total 12",
		`graf_fleet_ticks_total{shard="127.0.0.1:9001"} 40`,
		`graf_fleet_ticks_total{shard="127.0.0.1:9002"} 41`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("merged page missing %q:\n%s", want, got)
		}
	}
	if strings.Index(got, "graf_router_rounds_total") > strings.Index(got, "graf_fleet_ticks_total") {
		t.Error("families not in first-seen order")
	}
}

// TestMergeExpositionsRealRegistries merges two real Registry expositions —
// labels, histograms, escaping all flow through the text path.
func TestMergeExpositionsRealRegistries(t *testing.T) {
	mk := func(v float64) string {
		r := newRegistry()
		r.Counter("graf_rpc_requests_total", "RPC requests.", Labels{"op": "tick"}).Add(v)
		h := r.Histogram("graf_shard_op_seconds", "Op latency.", []float64{0.01, 0.1}, Labels{"op": "tick"})
		h.Observe(0.005)
		return r.Expose()
	}
	got := MergeExpositions([]Exposition{
		{Shard: "s1", Text: mk(3)},
		{Shard: "s2", Text: mk(5)},
	})
	for _, want := range []string{
		`graf_rpc_requests_total{shard="s1",op="tick"} 3`,
		`graf_rpc_requests_total{shard="s2",op="tick"} 5`,
		`graf_shard_op_seconds_bucket{shard="s1",op="tick",le="0.01"} 1`,
		`graf_shard_op_seconds_count{shard="s2",op="tick"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("merged page missing %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "# TYPE graf_shard_op_seconds histogram"); n != 1 {
		t.Errorf("histogram family has %d TYPE headers, want 1", n)
	}
	// A federated page must itself survive re-merging (idempotent format).
	again := MergeExpositions([]Exposition{{Shard: "", Text: got}})
	if again != got {
		t.Error("re-merging a merged page changed it")
	}
}
