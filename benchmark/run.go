package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"graf"
	"graf/internal/core"
	"graf/internal/obs"
)

// repetitions is how many times a run builds a fresh system from identical
// seeds and times it. Round i does bit-identical work in each, which is what
// lets per-round times be combined by per-index median.
const repetitions = 3

// runOpts is one invocation: one workload in this process.
type runOpts struct {
	w       *workload
	seed    int64
	seconds int
	rounds  int // timed rounds per repetition; 0 derives them from seconds
	traced  bool
	root    string // checkout root; scratch and trace files go under it
	train   func() *graf.TrainedModel
}

// rep is what one repetition measured.
type rep struct {
	traced   bool
	setupS   float64
	buildS   float64   // construction + warm start, all tenants
	roundMS  []float64 // wall of the program's round call, per timed round
	extraMS  []float64 // wall of the checkpoint or migration after it, if any
	wallS    float64   // the timed phase as the driver saw it
	allocB   uint64
	cpu      time.Duration
	gcCycles uint32
	gcPause  time.Duration
	retained int64 // live heap after a forced GC: end of timed phase − start
	out      outcome

	spans   []span          // the benchmark's own, traced repetition only
	program []obs.TraceSpan // the repo's obs.Tracer over the timed phase, traced repetition only
	taps    *taps
}

// result is what a run prints.
type result struct {
	workload  string
	correct   bool
	problems  []string
	notes     []string // per-repetition timings, printed but not part of the result line
	attempted int
	failed    int
	metrics   map[string]float64
}

func trainModel() *graf.TrainedModel {
	return graf.Train(graf.OnlineBoutique(), graf.TrainOptions{
		SLO:     time.Duration(sloS * float64(time.Second)),
		MinRate: minRate, MaxRate: maxRate,
		Samples: trainSamples, Iterations: trainIters, Batch: trainBatch, Seed: trainSeed,
	})
}

// run executes one workload in this process and returns its metrics:
// end-to-end metrics for an untraced run, per-layer metrics for a traced one.
func run(o runOpts) (result, error) {
	res := result{workload: o.w.name, metrics: map[string]float64{}}
	rounds := o.rounds
	if rounds == 0 {
		rounds = int(math.Ceil(o.w.roundsPerS * float64(o.seconds)))
	}
	scratch, err := os.MkdirTemp(filepath.Join(o.root, buildDir), "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(scratch)

	calib := calibNS()
	// An untraced run times three plain repetitions. A traced run puts the
	// traced repetition between two plain ones, so the overhead is read
	// against their mean and a drift of the host cancels.
	plan := make([]bool, repetitions)
	plan[1] = o.traced
	// graf.Train is not bit-reproducible even within one process (sample
	// labels differ in the last ulp between two calls), so the model is
	// trained once and every repetition is built from that one model; only
	// then can the repetitions be required to agree byte for byte.
	t0 := time.Now()
	tm := o.train()
	trainS := time.Since(t0).Seconds()
	var reps []rep
	for i, traced := range plan {
		r, err := runRep(o, tm, rounds, filepath.Join(scratch, fmt.Sprint(i)), traced)
		if err != nil {
			return res, fmt.Errorf("%s repetition %d: %w", o.w.name, i, err)
		}
		r.setupS += trainS
		reps = append(reps, r)
		// Release the previous system before the next is built, so peak RSS
		// is one repetition's and not the sum.
		runtime.GC()
		debug.FreeOSMemory()
	}

	peakRSS := usage().maxRSSMiB // before the checks below build a reference fleet
	calibAfter := calibNS()
	for i, r := range reps {
		res.notes = append(res.notes, fmt.Sprintf("repetition %d: traced=%v build+warm-up %.3fs timed %.3fs %.1f decisions/s",
			i, r.traced, r.setupS-trainS, r.wallS, float64(o.w.tenants*rounds)/r.wallS))
	}
	res.notes = append(res.notes, fmt.Sprintf("train %.3fs; host calibration kernel %.2fms before, %.2fms after", trainS, calib/1e6, calibAfter/1e6))
	decisions := o.w.tenants * rounds
	res.attempted = repetitions * o.w.tenants * (o.w.warmup + rounds)
	for _, r := range reps {
		res.failed += r.out.failed
	}
	res.problems = checkOutputs(o, rounds, scratch, reps, tm, &res)
	res.correct = len(res.problems) == 0 && res.failed == 0

	if o.traced {
		layerMetrics(res.metrics, o, reps, decisions, tm)
		res.metrics["gnn.train_s"] = trainS
		res.metrics["host.calib_ns"] = math.Max(calib, calibAfter)
		if a := res.metrics["trace.attributed_pct"]; o.w.name == "single_diurnal" && (a < 95 || a > 105) {
			res.problems = append(res.problems, fmt.Sprintf("sim, core and gnn self time cover %.1f%% of round wall, want within 5%%", a))
			res.correct = false
		}
		res.metrics["failed_ops_pct"] = 100 * float64(res.failed) / float64(res.attempted)
		return res, writeTraceFile(o, reps[1])
	}
	endToEnd(res.metrics, reps, decisions, o.w.tenants*(o.w.warmup+rounds))
	wallClock(res.metrics, reps, decisions)
	res.metrics["peak_rss_mb"] = peakRSS
	return res, nil
}

// runRep builds one fresh system, warms it up, times its rounds and tears it
// down. Set-up is everything before the first timed round.
func runRep(o runOpts, tm *graf.TrainedModel, rounds int, dir string, traced bool) (rep, error) {
	r := rep{traced: traced}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, err
	}
	t0 := time.Now()
	e := &env{app: graf.OnlineBoutique(), tm: tm, seed: o.seed, tenants: o.w.tenants, warmup: o.w.warmup, rounds: rounds, dir: dir}
	if traced {
		e.rec, e.taps = newRecorder(), &taps{}
		e.tracer = obs.NewTracer(obs.TracerOptions{Seed: o.seed, Proc: "benchmark", Cap: 1 << 18})
		r.taps = e.taps
	}
	tb := time.Now()
	inst, err := o.w.build(e)
	if err != nil {
		return r, err
	}
	r.buildS = time.Since(tb).Seconds()
	for i := 0; i < o.w.warmup; i++ {
		e.rec.setRound(i)
		if _, _, err := inst.round(i); err != nil {
			inst.finish()
			return r, err
		}
	}
	r.setupS = time.Since(t0).Seconds()

	// A forced collection on both sides of the timed phase puts every
	// repetition on the same footing and makes the heap growth readable.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := usage().cpu
	r.roundMS, r.extraMS = make([]float64, rounds), make([]float64, rounds)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		e.rec.setRound(o.w.warmup + i)
		sp := e.rec.begin("round")
		d, extra, err := inst.round(o.w.warmup + i)
		sp.end()
		if err != nil {
			inst.finish()
			return r, err
		}
		r.roundMS[i], r.extraMS[i] = ms(d), ms(extra)
	}
	r.wallS = time.Since(start).Seconds()
	r.cpu = usage().cpu - cpu0
	runtime.ReadMemStats(&after)
	r.allocB = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.retained = int64(after.HeapAlloc) - int64(before.HeapAlloc)

	r.out, err = inst.finish()
	r.spans = e.rec.snapshot()
	if e.taps != nil {
		// Keep what the program's own tracers recorded during the timed
		// phase; obs.Tracer stamps spans with the wall clock.
		for _, s := range append(e.tracer.Snapshot(), e.taps.shardSpans...) {
			if s.StartNS >= start.UnixNano() {
				r.program = append(r.program, s)
			}
		}
	}
	return r, err
}

// endToEnd fills the metrics a user of the control plane would see and that
// repeat from run to run: set-up time and the simulated and allocated cost.
func endToEnd(m map[string]float64, reps []rep, decisions, allDecisions int) {
	var setup, alloc []float64
	for _, r := range reps {
		setup = append(setup, r.setupS)
		alloc = append(alloc, float64(r.allocB)/1024/float64(decisions))
	}
	violS := 0.0
	for _, t := range reps[0].out.tenants {
		violS += t.violS
	}
	m["setup_s"] = median(setup)
	m["alloc_kb_per_decision"] = median(alloc)
	m["slo_attainment_pct"] = 100 * (1 - violS/(float64(allDecisions)*tickS))
	m["core_hours"] = reps[0].out.coreHours
}

// wallClock fills the timing metrics from plain repetitions. Every timing is
// taken over the per-index medians of the repetitions, throughput too: a
// stall that hits one repetition's round 17 is outvoted by the other
// repetitions' round 17, where a median of whole-phase wall times would still
// carry its share of it.
func wallClock(m map[string]float64, plain []rep, decisions int) {
	var rounds, extras [][]float64
	for _, r := range plain {
		rounds, extras = append(rounds, r.roundMS), append(extras, r.extraMS)
	}
	combined := perIndexMedian(rounds)
	busyMS := 0.0
	for i, extra := range perIndexMedian(extras) {
		busyMS += combined[i] + extra
	}
	m["decisions_per_s"] = float64(decisions) / (busyMS / 1000)
	m["round_ms_p50"] = quantile(combined, 0.5)
	m["round_ms_p90"] = quantile(combined, 0.9)
}

// checkOutputs verifies what the program produced. Each problem it returns
// makes the run incorrect; each also counts as failed operations in res.
func checkOutputs(o runOpts, rounds int, scratch string, reps []rep, tm *graf.TrainedModel, res *result) []string {
	var problems []string
	fail := func(n int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
		res.failed += n
	}
	// Determinism: every repetition was built from the same seeds, so each
	// must leave identical audit streams and identical simulated cost.
	ref := reps[0].out
	for i, r := range reps[1:] {
		if len(r.out.tenants) != len(ref.tenants) {
			fail(1, "repetition %d has %d tenants, repetition 0 has %d", i+1, len(r.out.tenants), len(ref.tenants))
			continue
		}
		for j, t := range r.out.tenants {
			if want := ref.tenants[j]; t.id != want.id || !bytes.Equal(t.audit, want.audit) || t.violS != want.violS {
				fail(1, "repetition %d: tenant %s differs from repetition 0 (audit %d bytes, viol %.0fs; want %d bytes, viol %.0fs); both logs kept in benchmark/out",
					i+1, t.id, len(t.audit), t.violS, len(want.audit), want.violS)
				keepMismatch(o.root, o.w.name, want.id, 0, want.audit)
				keepMismatch(o.root, o.w.name, t.id, i+1, t.audit)
			}
		}
		if r.out.coreHours != ref.coreHours && o.w.name != "rpc_plane" {
			fail(1, "repetition %d: core-hours %v differ from repetition 0's %v", i+1, r.out.coreHours, ref.coreHours)
		}
	}
	switch o.w.name {
	case "single_diurnal":
		// Every recorded solve must reproduce bit for bit from the log alone.
		recs, err := obs.ReadLog(bytes.NewReader(ref.tenants[0].audit))
		if err != nil {
			fail(1, "audit log unreadable: %v", err)
			break
		}
		t0 := time.Now()
		report := core.ReplayAudit(tm.Model, recs)
		if o.traced {
			res.metrics["core.replay_us_per_record"] = float64(time.Since(t0).Microseconds()) / float64(max(1, report.Decisions))
		}
		if !report.OK() || report.Solves != ref.solves {
			fail(len(report.Mismatches)+1, "replay: %s (controller reported %d solves)", report, ref.solves)
		}
	case "rpc_plane":
		// Every tenant's on-disk audit file must equal, byte for byte, what
		// one in-process fleet produces from the same spec.
		e := &env{tm: tm, seed: o.seed, tenants: o.w.tenants, warmup: o.w.warmup, rounds: rounds, dir: filepath.Join(scratch, "ref")}
		if o.traced {
			e.taps = &taps{}
		}
		want, err := rpcReference(e)
		if err != nil {
			fail(1, "reference fleet: %v", err)
			break
		}
		for j, t := range ref.tenants {
			if !bytes.Equal(t.audit, want.tenants[j].audit) {
				fail(1, "tenant %s: on-disk audit (%d bytes) differs from the in-process reference (%d bytes)",
					t.id, len(t.audit), len(want.tenants[j].audit))
			}
		}
		// The decisions are the reference's, so its simulated cost is theirs.
		for i := range reps {
			reps[i].out.coreHours, reps[i].out.requests, reps[i].out.solves = want.coreHours, want.requests, want.solves
			for k, v := range want.counters {
				reps[i].out.counters[k] = v
			}
			reps[i].out.samples["audit_flush_ms"] = want.samples["audit_flush_ms"]
		}
	}
	return problems
}

// keepMismatch saves an audit log that failed the determinism check, so the
// two streams can be diffed after the run.
func keepMismatch(root, workload, tenant string, repetition int, audit []byte) {
	path := filepath.Join(root, "benchmark", "out", fmt.Sprintf("mismatch-%s-%s-rep%d.jsonl", workload, tenant, repetition))
	if err := os.WriteFile(path, audit, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
}
