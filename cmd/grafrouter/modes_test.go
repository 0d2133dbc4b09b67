package main

import (
	"bytes"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graf"
	"graf/internal/app"
	"graf/internal/gnn"
	"graf/internal/obs"
	"graf/internal/rpc"
)

// testModel is the untrained, deterministic chain-4 artifact cmd/grafd's
// tests use, saved where every process of the routed fleet can load it.
func testModel(t *testing.T) (*graf.TrainedModel, string) {
	t.Helper()
	a := app.SyntheticChain(4)
	n := len(a.Services)
	b := graf.Bounds{Lo: make([]float64, n), Hi: make([]float64, n)}
	for i := range b.Lo {
		b.Lo[i], b.Hi[i] = 100, 1500
	}
	tr := &graf.TrainedModel{
		Model:  gnn.New(gnn.DefaultConfig(n, a.Parents()), rand.New(rand.NewSource(42))),
		Bounds: b, MinRate: 50, MaxRate: 400, SLO: 250 * time.Millisecond,
	}
	path := filepath.Join(t.TempDir(), "m.graf")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	return tr, path
}

func parse(args ...string) (*routerOptions, error) {
	fs := flag.NewFlagSet("grafrouter", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestFeatureModeTable is the grafrouter column of the feature × mode
// matrix (README "Modes"; cmd/grafd's test of the same name covers the
// other two): the router takes the same policy flags as grafd, and each row
// must run on two shards — with a mid-run migration, so every policy also
// crosses a restore — and leave every tenant's audit log byte-identical to
// the single-process fleet built from the same flags. What the router lacks
// is absent as a flag: -replay is offline (use grafd), -train would give
// every shard a different model, and the local restart drill (-crash-at,
// -assert-restore, -cold) is -kill-shard / -resume here.
func TestFeatureModeTable(t *testing.T) {
	tr, model := testModel(t)
	for _, row := range []struct {
		feature string
		flags   []string
	}{
		{"shape const", []string{"-shape", "const"}},
		{"shape surge", []string{"-shape", "surge"}},
		{"shape diurnal", []string{"-shape", "diurnal"}},
		{"shape azure", []string{"-shape", "azure"}},
		{"forecast", []string{"-shape", "diurnal", "-forecast", "hw", "-horizon-ticks", "3", "-forecast-quantile", "0.9"}},
		{"lifecycle", []string{"-lifecycle"}},
		{"slo", []string{"-slo", "200"}},
		{"slo budget", []string{"-slo-budget", "0.02"}},
		{"scripted brownout", []string{"-brownout", "2-5:heuristic"}},
		{"obs endpoint", []string{"-obs", "127.0.0.1:0"}},
	} {
		t.Run(row.feature, func(t *testing.T) {
			dir := t.TempDir()
			ckpt, audit := filepath.Join(dir, "ckpt"), filepath.Join(dir, "audit")
			var addrs []string
			for range [2]struct{}{} {
				// As grafd -shard serves: telemetry on the control-plane mux.
				s := &rpc.ShardServer{Bundle: tr.Bundle(), CkptDir: ckpt, AuditDir: audit, Tel: obs.New(obs.Options{})}
				addr, err := s.Serve("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer s.Shutdown()
				addrs = append(addrs, addr)
			}
			o, err := parse(append([]string{"-model", model, "-app", "chain-4", "-dur", "40", "-rate", "120", "-fleet", "2",
				"-shards", strings.Join(addrs, ","), "-ckpt", ckpt, "-audit-dir", audit, "-migrate", "tenant-00@4:other"}, row.flags...)...)
			if err != nil {
				t.Fatal(err)
			}
			if code := run(o); code != 0 {
				t.Fatalf("grafrouter %v: exit %d", row.flags, code)
			}

			want, err := rpc.ReferenceAudit(tr.Bundle(), o.drill.Spec, o.TenantIDs(), o.Rounds())
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range o.TenantIDs() {
				got, err := os.ReadFile(filepath.Join(audit, id+".jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[id]) {
					t.Errorf("%s: routed audit (%d bytes) differs from the single-process reference (%d bytes)", id, len(got), len(want[id]))
				}
			}
		})
	}
	for _, absent := range []string{"-replay", "-train", "-crash-at", "-assert-restore", "-cold"} {
		if _, err := parse("-model", model, "-spawn", "2", absent, "1"); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("grafrouter %s: got %v, want an undefined-flag error", absent, err)
		}
	}
}

// The router's own rules — placement, chaos and failover knobs — each once,
// and a schedule that does not parse, all before any shard is spawned; policy
// errors come from rpc.Spec.Validate, as in grafd.
func TestValidateRejectsContradictions(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-spawn", "2"}, "-model"},
		{[]string{"-model", "m", "-spawn", "2", "-shards", "127.0.0.1:1"}, "pick one"},
		{[]string{"-model", "m"}, "-spawn N or -shards"},
		{[]string{"-model", "m", "-resume"}, "-state-dir"},
		{[]string{"-model", "m", "-resume", "-state-dir", "s", "-spawn", "2"}, "cannot -spawn"},
		{[]string{"-model", "m", "-state-dir", "s", "-resume", "-standby", "h:1"}, "pick one"},
		{[]string{"-model", "m", "-spawn", "2", "-crash-after-drain"}, "-migrate"},
		{[]string{"-model", "m", "-spawn", "2", "-migrate", "tenant-00@3:1", "-crash-after-drain"}, "-state-dir"},
		{[]string{"-model", "m", "-shards", "127.0.0.1:1", "-kill-shard", "0@3"}, "-spawn"},
		{[]string{"-model", "m", "-spawn", "2", "-kill-shard", "2@3"}, "out of range"},
		{[]string{"-model", "m", "-spawn", "2", "-migrate", "tenant-00@soon:1"}, "tenant@round:slot"},
		{[]string{"-model", "m", "-spawn", "2", "-net-drop", "1"}, "-net-drop"},
		{[]string{"-model", "m", "-spawn", "2", "-round-budget-ms", "-1"}, "-round-budget-ms"},
		{[]string{"-model", "m", "-spawn", "2", "-round-budget-ms", "1e13"}, "-round-budget-ms"},
		{[]string{"-model", "m", "-spawn", "2", "-round-budget-ms", "NaN"}, "-round-budget-ms"},
		{[]string{"-model", "m", "-spawn", "2", "-round-budget-ms", "+Inf"}, "-round-budget-ms"},
		{[]string{"-model", "m", "-spawn", "2", "-net-drop", "NaN"}, "-net-drop"},
		{[]string{"-model", "m", "-spawn", "2", "-fleet", "0"}, "-fleet"},
		{[]string{"-model", "m", "-spawn", "2", "-shape", "zigzag"}, "shape"},
		{[]string{"-model", "m", "-spawn", "2", "-forecast-quantile", "0.9"}, "without a forecast model"},
		{[]string{"-model", "m", "-spawn", "2", "-brownout", "12:turbo"}, "ladder step"},
	} {
		if _, err := parse(c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("grafrouter %v: got %v, want an error mentioning %q", c.args, err, c.want)
		}
	}
}
