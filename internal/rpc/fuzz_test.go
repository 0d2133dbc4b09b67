package rpc

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"testing"

	"graf/internal/overload"
)

// FuzzParseBrownout hammers the -brownout flag parser. The flag reaches
// every process in a fleet via the shared Spec, so the parser must never
// panic, must reject malformed schedules instead of silently mangling them
// (a half-parsed schedule would break single-process/distributed byte
// comparability), and must be deterministic: the same string parses to the
// same schedule in every process.
func FuzzParseBrownout(f *testing.F) {
	for _, seed := range []string{
		"",
		"   ",
		"0:full",
		"12-24:heuristic",
		"12-24:heuristic,30:warm",
		"0-5:hold,5-10:warm,10:full",
		"5",
		":",
		"5:",
		":warm",
		"3:nosuchstep",
		"-1:warm",
		"4-2:warm",  // TO below FROM
		"4-4:warm",  // TO equal to FROM
		"1-2:warm,", // trailing comma -> empty phase
		"a-b:warm",
		"1.5:warm",
		"1-2:warm:extra",
		"9999999999999999999999:warm",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sched, err := parseBrownout(s)
		if err != nil {
			if sched != nil {
				t.Fatalf("ParseBrownout(%q) returned a partial schedule alongside error %v", s, err)
			}
			return
		}
		for i, ph := range sched {
			if ph.FromTick < 0 {
				t.Fatalf("ParseBrownout(%q) phase %d: negative FromTick %d", s, i, ph.FromTick)
			}
			if ph.ToTick != 0 && ph.ToTick <= ph.FromTick {
				t.Fatalf("ParseBrownout(%q) phase %d: ToTick %d not above FromTick %d", s, i, ph.ToTick, ph.FromTick)
			}
			if ph.Step != overload.ClampStep(ph.Step) {
				t.Fatalf("ParseBrownout(%q) phase %d: step %v off the ladder", s, i, ph.Step)
			}
		}
		// Determinism: a second parse of the same flag must yield the
		// identical schedule — this is what keeps the distributed run and
		// the single-process reference degrading in lockstep.
		again, err2 := parseBrownout(s)
		if err2 != nil {
			t.Fatalf("ParseBrownout(%q) second parse errored: %v", s, err2)
		}
		if len(again) != len(sched) {
			t.Fatalf("ParseBrownout(%q) nondeterministic: %d phases then %d", s, len(sched), len(again))
		}
		for i := range sched {
			if again[i] != sched[i] {
				t.Fatalf("ParseBrownout(%q) nondeterministic at phase %d: %+v vs %+v", s, i, sched[i], again[i])
			}
		}
	})
}

// FuzzSpecDecode hammers the /v1/configure body: any JSON a router (or an
// attacker on the control-plane port) can send must either be rejected by
// Validate or materialise without panicking, and an accepted spec must give
// every tenant a finite, non-negative arrival rate over its whole horizon —
// a NaN or negative rate would wedge the open-loop generator's next-arrival
// arithmetic in every process that builds the tenant.
func FuzzSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"app":"chain-4","shape":"const","rate":120,"seed":7,"tick_s":5}`,
		`{"app":"chain-4","shape":"surge","rate":40,"surge_to":80,"surge_at_s":90,"warm_start":true}`,
		`{"app":"chain-4","shape":"diurnal","rate":1,"dur_s":300,"forecast":"hw","horizon_ticks":3,"forecast_quantile":0.9}`,
		`{"app":"online-boutique","shape":"azure","rate":1,"lifecycle":true,"slo_ms":200}`,
		`{"app":"chain-4","rate":1,"brownout":[{"FromTick":6,"ToTick":12,"Step":2}]}`,
		`{"app":"chain-4","rate":1,"brownout":[{"FromTick":0,"ToTick":0,"Step":9}]}`,
		`{"app":"chain-4","rate":1,"brownout":[{"FromTick":-4,"ToTick":-9,"Step":-3}]}`,
		`{"app":"chain-4","rate":1e308,"surge_to":-1,"shape":"surge"}`,
		`{"app":"chain-4","rate":1,"dur_s":99999999999}`,
		`{"app":"chain-4","rate":1,"slo_budget":{"budget":7}}`,
		`{"app":"chain-99999999","rate":1}`,
		`{"app":"chain-4","rate":-0}`,
		`{"app":"chain-4","rate":1,"tick_s":1e308}`,
		`{"app":"chain-4","rate":1,"tick_s":604801}`,
		`{"app":"chain-4","rate":1,"tick_s":0.5}`,
		`{"app":"chain-4","rate":1,"tick_s":1e-300}`,
		`{"app":"chain-4","rate":1,"tick_s":1}`,
		`{"app":"chain-4","rate":1,"tick_s":604800,"workers":1024}`,
		`{"app":"chain-4","rate":1,"workers":2000000000}`,
		`{"app":"chain-4","rate":1,"workers":1025}`,
	} {
		f.Add([]byte(seed))
	}
	bundle := testBundle(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Spec
		if json.Unmarshal(body, &s) != nil || s.Validate() != nil {
			return
		}
		if !(s.TickS == 0 || s.TickS >= minTickS && s.TickS <= maxDurS) || s.Workers > maxWorkers {
			t.Fatalf("spec %s validated with tick %v s and %d workers", body, s.TickS, s.Workers)
		}
		if _, err := s.FleetConfig(bundle, ""); err != nil && s.App == "chain-4" {
			t.Fatalf("validated chain-4 spec %s does not materialise: %v", body, err)
		}
		tc := s.TenantConfig("tenant-00")
		for _, at := range []float64{0, 1, 59.5, 60, 120, 121, float64(s.DurS), float64(s.DurS) + 59, float64(s.DurS) + 61} {
			if r := tc.Rate(at); math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				t.Fatalf("spec %s: rate(%v) = %v", body, at, r)
			}
			if tc.Users != nil && tc.Users(at) < 0 {
				t.Fatalf("spec %s: users(%v) = %d", body, at, tc.Users(at))
			}
		}
	})
}

// FuzzTickAdmitDecode hammers the /v1/tick and /v1/admit bodies on a shard
// configured at a 5 s tick with no tenant. The shard runs a request's ticks
// under its mutex, so a body that does not decode (as a whole: trailing
// bytes after the JSON value are refused), a round below 1, a negative tick
// count, or one whose simulated time passes maxDurS must get a 400, a body
// over maxRequestBytes a 413, and a rejected admit must place no tenant. A
// round inside the bound costs nothing without a tenant, so every tick body
// is served; an admit is served only when it must be rejected, since an
// accepted one replays ticks.
func FuzzTickAdmitDecode(f *testing.F) {
	for _, seed := range []string{
		`{"round":3}`,
		`{"round":0}`,
		`{"round":-1}`,
		`{"round":120960}`,
		`{"round":120961}`,
		`{"round":1000000000000}`,
		`{"round":9223372036854775807}`,
		`{"round":1.5}`,
		`{"id":"t-a","ticks":2}`,
		`{"id":"t-a","ticks":-1}`,
		`{"id":"t-a","ticks":120961}`,
		`{"id":"t-a","ticks":1000000000000}`,
		`{"id":"t-a","ticks":"3"}`,
		`{}`,
		`{"round":3} trailing`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	s, h := configuredHandler(f, testSpec())
	const maxTicks = maxDurS / 5
	f.Fuzz(func(t *testing.T, body []byte) {
		rejected := http.StatusBadRequest
		if len(body) > maxRequestBytes {
			rejected = http.StatusRequestEntityTooLarge
		}
		var tick tickRequest
		valid := rejected == http.StatusBadRequest && json.Unmarshal(body, &tick) == nil && tick.Round >= 1 && tick.Round <= maxTicks
		want := rejected
		if valid {
			want = http.StatusOK
		}
		if code := postGuarded(t, h, "/v1/tick", body); code != want {
			t.Fatalf("tick %s: status %d, want %d", body, code, want)
		}
		var admit admitRequest
		if rejected == http.StatusBadRequest && json.Unmarshal(body, &admit) == nil && admit.Ticks >= 0 && admit.Ticks <= maxTicks {
			return
		}
		if code := postGuarded(t, h, "/v1/admit", body); code != rejected {
			t.Fatalf("admit %s: status %d, want %d", body, code, rejected)
		}
		if n := len(s.fl.Tenants()); n != 0 {
			t.Fatalf("admit %s was rejected but placed %d tenants", body, n)
		}
	})
}

// FuzzParseSchedule hammers the -migrate / -kill-shard grammar. The router
// parses it before a single shard process exists, so whatever it accepts must
// be runnable as is: positive rounds, a named tenant, slots inside the shard
// set (or the one symbolic slot each clause allows) — and a rejected clause
// must reject the whole schedule, never half of it.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []struct {
		migrate, kill string
		shards        int
	}{
		{"", "", 2},
		{"tenant-03@5:1", "0@12", 2},
		{"tenant-03@5:other", "max@12", 2},
		{"tenant-03@5:max", "other@12", 2},
		{"t@1:7", "7@1", 0},
		{"@5:1", "@", 2},
		{"tenant-03@5", "0", 2},
		{"tenant-03@0:1", "0@0", 2},
		{"tenant-03@-5:1", "-1@3", 2},
		{"a@b@3:1", "1@2@3", 2},
		{"tenant-03@5:1:2", "0@12:1", 2},
		{"tenant-03@9999999999999999999:1", "0@9999999999999999999", 2},
		{"tenant-03@5:+1", "+1@+3", 2},
	} {
		f.Add(seed.migrate, seed.kill, seed.shards)
	}
	f.Fuzz(func(t *testing.T, migrate, kill string, shards int) {
		if shards < 0 {
			shards = 0
		}
		s, err := ParseSchedule(migrate, kill, shards)
		if err != nil {
			if len(s.Migrations)+len(s.Kills) != 0 {
				t.Fatalf("ParseSchedule(%q, %q, %d) returned half a schedule alongside error %v", migrate, kill, shards, err)
			}
			return
		}
		if (migrate == "") != (len(s.Migrations) == 0) || (kill == "") != (len(s.Kills) == 0) {
			t.Fatalf("ParseSchedule(%q, %q, %d) = %+v: a clause was dropped or invented", migrate, kill, shards, s)
		}
		inRange := func(slot, symbolic int) bool {
			return slot == symbolic || (slot >= 0 && (shards == 0 || slot < shards))
		}
		for _, m := range s.Migrations {
			if m.Tenant == "" || m.Round <= 0 || !inRange(m.Slot, SlotOther) {
				t.Fatalf("ParseSchedule(%q, _, %d) accepted %+v", migrate, shards, m)
			}
		}
		for _, k := range s.Kills {
			if k.Round <= 0 || !inRange(k.Slot, SlotMax) {
				t.Fatalf("ParseSchedule(_, %q, %d) accepted %+v", kill, shards, k)
			}
		}
		if again, err := ParseSchedule(migrate, kill, shards); err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("ParseSchedule(%q, %q, %d) is not deterministic: %+v then %+v (%v)", migrate, kill, shards, s, again, err)
		}
	})
}
