package bench

import (
	"fmt"
	"math"
	"os"

	"graf/internal/chaos"
	"graf/internal/ckpt"
	"graf/internal/core"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/workload"
)

// recoveryOut summarizes one restart mode's run through the crash scenario.
type recoveryOut struct {
	violS          float64 // seconds of fault-window samples with p99(10s) > SLO
	worstP99       float64 // worst sliding p99 during the window (s)
	reconvergeTick int     // decision ticks from restart to the last violating sample
	crashes        int     // controller kills the run scripted
	mode           string  // restore mode of the last restart
	stranded       int     // in-flight requests left after full drain (must be 0)
}

// The crash schedule, relative to the injection start: the telemetry
// pipeline starts lying (5% arrival sampling) at +10 and the control plane
// is killed at +13 — inside the same decision interval, so the live
// controller never gets to act on the lying signal — then restarts 15 s
// later, warm or cold. The workload surges two seconds after the restart,
// while the telemetry is still lying: the restarted controller must decide,
// from whatever state it came back with, whether the ~12 rps it observes is
// a real traffic drop or a telemetry fault.
const (
	recoveryCrashAtS  = 13
	recoveryRestartS  = 15
	recoveryCkptEvery = 20
)

// runRecovery drives one GRAF controller through the crash scenario on a
// warm Online Boutique cluster, checkpointing it every 20 s. The cluster
// outlives the kill; only the controller dies and is rebuilt in place. The
// only difference between the two runs is the restart mode: warm restores
// the last checkpoint and folds the audit tail; cold restarts the
// controller with empty state. The cold controller trusts the sampled-down
// arrival rate (its stale-telemetry detector has no reference rate to
// compare against) and tears capacity down just as the surge lands; the
// warm one recognizes the collapse against its restored reference rate and
// holds the last-known-good configuration until the telemetry recovers.
func runRecovery(tr *trained, warm bool, slo float64, seed int64) recoveryOut {
	eng := sim.NewEngine(seed)
	cl := newCluster(eng, tr.App)
	warmStart(eng, cl, evalRate) // engine now at 60

	dir, err := os.MkdirTemp("", "graf-recovery-ckpt-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	store, err := ckpt.NewStore(dir)
	if err != nil {
		panic(err)
	}

	// A memory-only telemetry bundle keeps the audit log whose tail warm
	// restore folds on top of the snapshot.
	tel := obs.New(obs.Options{})
	build := func() *core.Controller {
		ctl := newGRAFController(tr, cl, core.DefaultControllerConfig(slo))
		ctl.Obs = obs.NewControllerObs(tel)
		return ctl
	}
	ctl := build()
	ctl.Start()
	stopCkpt := eng.Ticker(eng.Now()+recoveryCkptEvery, recoveryCkptEvery, func() {
		if _, _, err := store.Save(&ckpt.Snapshot{At: eng.Now(), Controller: ctl.Snapshot()}); err != nil {
			panic(err)
		}
	})

	// The workload surges 240→300 rps at absolute t=240, two seconds after
	// the restarted controller comes back at t=238: the restart and the
	// surge land inside the same lying-telemetry window.
	g := workload.NewOpenLoop(cl, workload.StepRate(evalRate, 300, 240))
	g.Start()
	settle := eng.Now() + 150
	eng.RunUntil(settle)

	var out recoveryOut
	restart := func() {
		ctl = build()
		out.mode = "cold"
		if warm {
			snap, err := store.LoadLatest()
			if err != nil {
				panic(err)
			}
			st := snap.Controller
			core.ApplyAuditTail(&st, tel.Flight.Records(), ctl.Cfg)
			ctl.Restore(st)
			// Re-assert the last applied configuration; a no-op when the
			// cluster kept its scaling state through the kill.
			cl.ReconcileQuotas(st.LastQuotas)
			out.mode = "warm"
		}
		ctl.Start()
	}
	faultStart := eng.Now() // 210
	chaos.New(cl).Play(chaos.Scenario{Events: []chaos.Event{
		chaos.SampleArrivals(10, 0.05, 60),
	}})
	eng.At(faultStart+recoveryCrashAtS, func() {
		out.crashes++
		ctl.Stop()
		stopCkpt() // a dead controller writes no checkpoints
		eng.After(recoveryRestartS, restart)
	})

	restartAt := faultStart + recoveryCrashAtS + recoveryRestartS
	const observeS = 240
	violations := 0
	lastViolationAt := restartAt
	stopTick := eng.Ticker(faultStart+2, 2, func() {
		p99 := cl.E2ELatencyQuantile(0.99, 10)
		if p99 > out.worstP99 {
			out.worstP99 = p99
		}
		if p99 > slo {
			violations++
			lastViolationAt = eng.Now()
		}
	})
	eng.RunUntil(faultStart + observeS)
	stopTick()
	g.Stop()
	ctl.Stop()
	eng.Run() // drain everything, including retries and startups

	out.violS = float64(violations) * 2
	if lastViolationAt > restartAt {
		out.reconvergeTick = int(math.Ceil((lastViolationAt - restartAt) / core.IntervalS))
	}
	out.stranded = cl.InFlight()
	return out
}

// recovery is the crash-recovery experiment: the same deterministic
// schedule — a lying telemetry pipeline, a control-plane kill at the onset
// of a 240→300 rps surge, a 15 s restart delay — against warm
// (checkpoint + audit-tail) and cold restart. The acceptance bar is strict:
// warm must log fewer SLO-violation seconds and fewer
// ticks-to-reconverge than cold under the identical seed and fault script.
func recovery(s Scale) Result {
	tr := boutiquePipeline(s)
	slo := tr.Spec.SLO
	res := Result{
		Title:  "Cold vs. warm control-plane restart under a surge (Online Boutique, 240→300 rps, 250 ms SLO)",
		Header: []string{"restart", "SLO-viol s", "worst p99", "reconverge ticks", "crashes", "restore"},
	}
	outs := map[string]recoveryOut{}
	for _, mode := range []string{"warm", "cold"} {
		o := runRecovery(tr, mode == "warm", slo, 42)
		outs[mode] = o
		res.AddRow(mode,
			f0(o.violS), ms(o.worstP99), fmt.Sprintf("%d", o.reconvergeTick),
			fmt.Sprintf("%d", o.crashes), o.mode)
		if o.stranded != 0 {
			res.Fail("%s stranded %d in-flight requests after drain", mode, o.stranded)
		}
		if o.crashes != 1 || o.mode != mode {
			res.Fail("%s run: %d crashes and restore mode %q, want one scripted kill and a %s restore", mode, o.crashes, o.mode, mode)
		}
	}
	w, c := outs["warm"], outs["cold"]
	if w.violS < c.violS && w.reconvergeTick < c.reconvergeTick {
		res.Note("warm restart beats cold on both axes: %.0f vs %.0f violation-seconds, %d vs %d ticks to reconverge",
			w.violS, c.violS, w.reconvergeTick, c.reconvergeTick)
	} else {
		res.Fail("warm (%.0f viol-s, %d ticks) does not strictly beat cold (%.0f viol-s, %d ticks)",
			w.violS, w.reconvergeTick, c.violS, c.reconvergeTick)
	}
	res.Note("checkpoint cadence 20 s; telemetry reports 5%% of arrivals from +10 s for 60 s; controller killed at +13 s, restarted after 15 s; workload surges 240→300 rps 2 s after the restart")
	return res
}
