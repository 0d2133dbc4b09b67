package main

import (
	"bytes"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"graf"
	"graf/internal/app"
	"graf/internal/fleet"
	"graf/internal/gnn"
)

// testModel is an untrained but deterministic chain-4 artifact: decisions are
// poor, which is the point — boosts, breaker trips and lifecycle drift all
// fire within a few rounds.
func testModel() *graf.TrainedModel {
	a := app.SyntheticChain(4)
	n := len(a.Services)
	b := graf.Bounds{Lo: make([]float64, n), Hi: make([]float64, n)}
	for i := range b.Lo {
		b.Lo[i], b.Hi[i] = 100, 1500
	}
	return &graf.TrainedModel{
		Model:  gnn.New(gnn.DefaultConfig(n, a.Parents()), rand.New(rand.NewSource(42))),
		Bounds: b, MinRate: 50, MaxRate: 400, SLO: 250 * time.Millisecond,
	}
}

// parse runs grafd's flag parsing and validation on a command line.
func parse(args ...string) (*options, error) {
	fs := flag.NewFlagSet("grafd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// local runs `grafd -model m -app chain-4 -dur 40 -rate 120 args...` in
// process and returns its exit code.
func local(t *testing.T, args ...string) int {
	t.Helper()
	o, err := parse(append([]string{"-model", "m.graf", "-app", "chain-4", "-dur", "40", "-rate", "120"}, args...)...)
	if err != nil {
		t.Fatalf("grafd %v: %v", args, err)
	}
	return runFleet(testModel(), o)
}

// stdoutOf runs f with os.Stdout redirected and returns what it printed.
func stdoutOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() { b, _ := io.ReadAll(r); out <- b }()
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	return string(<-out)
}

const (
	fromRouter = "takes its policy from the router"
	offline    = "offline"
)

// TestFeatureModeTable is the feature × mode matrix of README "Modes", for
// the two grafd columns (cmd/grafrouter's test of the same name covers the
// third): every feature works in every mode, or is absent from it for one
// stated reason. "Works" means the local daemon accepts the flags and runs
// the feature to exit 0; a shard either accepts the flag or refuses it with
// the column's reason.
func TestFeatureModeTable(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	rows := []struct {
		feature string
		flags   []string
		shard   string // "" = works; else the reason the shard refuses
	}{
		{"shape const", []string{"-shape", "const"}, fromRouter},
		{"shape surge", []string{"-shape", "surge"}, fromRouter},
		{"shape diurnal", []string{"-shape", "diurnal"}, fromRouter},
		{"shape azure", []string{"-shape", "azure"}, fromRouter},
		{"forecast", []string{"-shape", "diurnal", "-forecast", "hw", "-horizon-ticks", "3", "-forecast-quantile", "0.9"}, fromRouter},
		{"lifecycle", []string{"-fleet", "2", "-lifecycle", "-model-archive", at("models")}, fromRouter},
		{"slo", []string{"-slo", "200"}, fromRouter},
		{"slo budget", []string{"-slo-budget", "0.02"}, fromRouter},
		{"scripted brownout", []string{"-brownout", "2-5:heuristic"}, fromRouter},
		{"many tenants", []string{"-fleet", "3", "-shards", "2"}, fromRouter},
		{"obs endpoint", []string{"-obs", "127.0.0.1:0", "-smoke"}, fromRouter}, // a shard's /metrics rides its control-plane port
		{"audit dir", []string{"-audit-dir", at("audit")}, ""},
		{"checkpoints", []string{"-ckpt", at("ckpt"), "-audit-dir", at("ckpt-audit")}, ""},
		{"restart restore", []string{"-ckpt", at("ckpt"), "-audit-dir", at("ckpt-audit"), "-assert-restore"}, fromRouter},
		{"replay", []string{"-replay", at("audit/tenant-00.jsonl")}, fromRouter},
	}
	stdout := map[string]string{}
	for _, row := range rows {
		t.Run(row.feature, func(t *testing.T) {
			if row.feature == "replay" {
				// Offline: it verifies the "audit dir" row's log and runs nothing.
				o, err := parse(append([]string{"-model", "m.graf"}, row.flags...)...)
				if err != nil {
					t.Fatal(err)
				}
				if code := replay(testModel(), o.replay, false); code != 0 {
					t.Errorf("replay of %s: exit %d", o.replay, code)
				}
				if _, err := parse("-model", "m.graf", "-replay", "x.jsonl", "-forecast", "hw"); err == nil || !strings.Contains(err.Error(), offline) {
					t.Errorf("-replay with a live-run flag: got %v, want the reason %q", err, offline)
				}
			} else {
				var code int
				stdout[row.feature] = stdoutOf(t, func() { code = local(t, row.flags...) })
				if code != 0 {
					t.Errorf("grafd %v: exit %d\n%s", row.flags, code, stdout[row.feature])
				}
			}
			_, err := parse(append([]string{"-model", "m.graf", "-shard", "127.0.0.1:0"}, row.flags...)...)
			switch {
			case row.shard == "" && err != nil:
				t.Errorf("grafd -shard %v: %v", row.flags, err)
			case row.shard != "" && (err == nil || !strings.Contains(err.Error(), row.shard)):
				t.Errorf("grafd -shard %v: got %v, want the reason %q", row.flags, err, row.shard)
			}
		})
	}
	// Every tenant of a lifecycle fleet archives its generation 0 and prints
	// its lifecycle summary.
	if n := strings.Count(stdout["lifecycle"], "lifecycle: phase="); n != 2 {
		t.Errorf("lifecycle run printed %d lifecycle summaries, want one per tenant:\n%s", n, stdout["lifecycle"])
	}
	for _, id := range []string{"tenant-00", "tenant-01"} {
		if _, err := os.Stat(at("models/" + id + "/model-00000000.graf")); err != nil {
			t.Errorf("lifecycle run archived no generation 0 for %s: %v", id, err)
		}
		if !regexp.MustCompile(`(?m)^\s*` + id + `\s+lifecycle: phase=`).MatchString(stdout["lifecycle"]) {
			t.Errorf("lifecycle run printed no lifecycle summary for %s", id)
		}
	}
	// -train is the one model source a shard refuses, with its own reason.
	if _, err := parse("-train", "-shard", "127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "different model") {
		t.Errorf("grafd -train -shard: got %v, want the different-models reason", err)
	}
	if _, err := parse("-train", "-fleet", "2", "-forecast", "ar"); err != nil {
		t.Errorf("grafd -train: %v", err)
	}
}

// What is left of flag validation once policy lives in rpc.Spec.Validate:
// each rule, once.
func TestValidateRejectsContradictions(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{}, "-model"},
		{[]string{"-model", "m", "-train"}, "mutually exclusive"},
		{[]string{"-model", "m", "-shape", "sawtooth"}, "shape"},
		{[]string{"-model", "m", "-rate", "-1"}, "rate"},
		{[]string{"-model", "m", "-dur", "0"}, "-dur"},
		{[]string{"-model", "m", "-fleet", "0"}, "-fleet"},
		{[]string{"-model", "m", "-forecast", "lstm"}, "hw | ar | naive"},
		{[]string{"-model", "m", "-horizon-ticks", "3"}, "without a forecast model"},
		{[]string{"-model", "m", "-brownout", "12:turbo"}, "ladder step"},
		{[]string{"-model", "m", "-brownout", "24-12:heuristic"}, "above FROM"},
		{[]string{"-model", "m", "-slo-budget", "1.5"}, "[0,1)"},
		{[]string{"-model", "m", "-fleet", "4", "-shards", "8"}, "exceeds"},
		{[]string{"-model", "m", "-crash-at", "100"}, "-crash-at requires -ckpt"},
		{[]string{"-model", "m", "-assert-restore"}, "-assert-restore requires -ckpt"},
		{[]string{"-model", "m", "-cold"}, "-cold requires -ckpt"},
		{[]string{"-model", "m", "-ckpt", "s", "-ckpt-every", "0"}, "-ckpt-every"},
		{[]string{"-model", "m", "-ckpt", "s", "-crash-at", "600"}, "end of the run"},
		{[]string{"-model", "m", "-smoke"}, "needs -obs"},
		{[]string{"-model", "m", "-hold", "30"}, "needs -obs"},
		{[]string{"-model", "m", "-model-archive", "models"}, "needs -lifecycle"},
		{[]string{"-model", "m", "-max-inflight", "16"}, "needs -shard"},
		{[]string{"-model", "m", "-governor-budget-ms", "500"}, "needs -shard"},
		{[]string{"-model", "m", "-shard", "127.0.0.1:0", "-max-inflight", "-1"}, "non-negative"},
		{[]string{"-model", "m", "-shard", "127.0.0.1:0", "-governor-budget-ms", "-1"}, "-governor-budget-ms"},
		{[]string{"-model", "m", "-shard", "127.0.0.1:0", "-governor-budget-ms", "NaN"}, "-governor-budget-ms"},
		{[]string{"-model", "m", "-shard", "127.0.0.1:0", "-governor-budget-ms", "+Inf"}, "-governor-budget-ms"},
		{[]string{"-model", "m", "-shard", "127.0.0.1:0", "-governor-budget-ms", "1e13"}, "-governor-budget-ms"},
	} {
		if _, err := parse(c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("grafd %v: got %v, want an error mentioning %q", c.args, err, c.want)
		}
	}
	if _, err := parse("-model", "m", "-shard", "127.0.0.1:0", "-ckpt", "s", "-audit-dir", "a", "-max-inflight", "16", "-governor-budget-ms", "500"); err != nil {
		t.Errorf("shard with overload protection rejected: %v", err)
	}
}

func readAudit(t *testing.T, dir, tenant string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, tenant+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A fleet of one is the default, not a mode: `grafd X` and `grafd X -fleet 1`
// write the same audit bytes — and so does tenant-00 of a larger fleet.
func TestSingleTenantIsFleetOfOne(t *testing.T) {
	dir := t.TempDir()
	for name, args := range map[string][]string{"plain": nil, "one": {"-fleet", "1"}, "three": {"-fleet", "3"}} {
		if code := local(t, append(args, "-shape", "surge", "-audit-dir", filepath.Join(dir, name))...); code != 0 {
			t.Fatalf("%s: exit %d", name, code)
		}
	}
	plain := readAudit(t, filepath.Join(dir, "plain"), "tenant-00")
	if len(plain) == 0 {
		t.Fatal("empty audit log")
	}
	for _, other := range []string{"one", "three"} {
		if !bytes.Equal(plain, readAudit(t, filepath.Join(dir, other), "tenant-00")) {
			t.Errorf("tenant-00 of the %q run differs from the plain run", other)
		}
	}
}

// -slo used to be dead with -model … -fleet N (the fleet took the artifact's
// SLO): it now rides the spec into every tenant's controller and header.
func TestSLOFlagReachesEveryTenant(t *testing.T) {
	dir := t.TempDir()
	if code := local(t, "-fleet", "2", "-slo", "200", "-audit-dir", dir); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"tenant-00", "tenant-01"} {
		header, _, _ := bytes.Cut(readAudit(t, dir, id), []byte("\n"))
		if !bytes.Contains(header, []byte(`"slo":0.2,`)) {
			t.Errorf("%s: header %s does not carry the 200 ms SLO", id, header)
		}
	}
}

// The local restart drill: die abruptly between checkpoints with a torn
// audit tail, boot again, and the daemon must restore every tenant at its
// snapshot tick (state digest verified), replay the decisions the dead
// process made past it (audit prefix verified), and finish with the bytes an
// uninterrupted run writes.
func TestLocalRestartRestoresLosslessly(t *testing.T) {
	dir := t.TempDir()
	ckpt, audit, ref := filepath.Join(dir, "ckpt"), filepath.Join(dir, "audit"), filepath.Join(dir, "ref")
	run := []string{"-fleet", "2", "-dur", "100", "-slo-budget", "0.02"}
	durable := append(run, "-ckpt", ckpt, "-audit-dir", audit)

	if code := local(t, append(durable, "-crash-at", "50")...); code != 42 {
		t.Fatalf("crash run: exit %d, want 42", code)
	}
	torn := readAudit(t, audit, "tenant-00")
	if torn[len(torn)-1] == '\n' {
		t.Fatal("crash left no torn audit tail")
	}
	if ticks := mustTicks(t, ckpt, "tenant-00"); ticks != 8 {
		t.Fatalf("latest snapshot at tick %d, want 8 (every 20 s, crash after round 10)", ticks)
	}
	if code := local(t, append(durable, "-assert-restore")...); code != 0 {
		t.Fatalf("restart: exit %d", code)
	}
	if code := local(t, append(run, "-audit-dir", ref)...); code != 0 {
		t.Fatalf("reference run: exit %d", code)
	}
	for _, id := range []string{"tenant-00", "tenant-01"} {
		got, want := readAudit(t, audit, id), readAudit(t, ref, id)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: restarted run's audit (%d bytes) differs from the uninterrupted run's (%d bytes)", id, len(got), len(want))
		}
	}
	if whole := torn[:bytes.LastIndexByte(torn, '\n')+1]; !bytes.HasPrefix(readAudit(t, audit, "tenant-00"), whole) {
		t.Error("the dead process's complete records are not a prefix of the final log")
	}

	// A corrupted prior log must fail the boot, not be silently rewritten.
	if err := os.WriteFile(filepath.Join(audit, "tenant-00.jsonl"), bytes.Replace(readAudit(t, ref, "tenant-00"), []byte(`"kind":"`), []byte(`"kind":"x`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := local(t, durable...); code == 0 {
		t.Error("boot over a diverging prior audit log succeeded")
	}
	// -cold ignores what is there.
	if code := local(t, append(durable, "-cold")...); code != 0 {
		t.Errorf("-cold boot: exit %d", code)
	}
}

func mustTicks(t *testing.T, dir, id string) int {
	t.Helper()
	n, err := fleet.CheckpointedTicks(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
