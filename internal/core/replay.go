package core

import (
	"fmt"

	"graf/internal/app"
	"graf/internal/obs"
)

// ReplayReport summarizes one audit-log replay: how many recorded decisions
// were re-executed and how many reproduced bit-identically.
type ReplayReport struct {
	Decisions  int // decision records in the log
	Solves     int // decisions taken on the model path and re-solved
	Matched    int // re-solved decisions whose outputs matched bit-for-bit
	SkippedGen int // solves skipped because no model of their generation was supplied
	Mismatches []string
}

// OK reports whether every re-solved decision reproduced exactly.
func (r ReplayReport) OK() bool { return len(r.Mismatches) == 0 }

// String renders a one-line summary.
func (r ReplayReport) String() string {
	s := fmt.Sprintf("replay: %d decisions, %d solves re-run, %d matched, %d mismatches",
		r.Decisions, r.Solves, r.Matched, len(r.Mismatches))
	if r.SkippedGen > 0 {
		s += fmt.Sprintf(", %d skipped (missing model generation)", r.SkippedGen)
	}
	return s
}

// ReplayAudit re-executes the solver over a recorded flight-recorder log and
// verifies each model-path decision reproduces bit-identically: same quotas,
// same predicted latency, same iteration count, same convergence flag —
// under the solver version the header names.
//
// Decision records carry the exact solver inputs (distributed load vector and
// the effective bounds after the demand floor); the header record carries the
// SLO and solver configuration. Solve is deterministic — pure float64
// arithmetic, no randomness, no wall-clock reads — and encoding/json
// round-trips float64 exactly, so any mismatch means either a different
// model than the recording used or a behavior change in the solver. Only the
// kinds that ran the solver (kindSolve, kindWarmSolve, kindFallback,
// kindFallbackModel) carry its inputs; the reactive paths (boost, hold,
// hysteresis, idle, the brownout heuristic and hold rungs) made no model
// call and are counted but not re-run.
func ReplayAudit(m LatencyModel, log []obs.Record) ReplayReport {
	return ReplayAuditModels(map[int]LatencyModel{0: m}, log)
}

// ReplayAuditModels replays a log whose recording swapped models mid-run —
// a lifecycle promotion or rollback. Each decision record carries the
// generation number of the model that produced it; models maps generation →
// model (the initial model is generation 0, archived generations come from
// the lifecycle manager's model store). Decisions whose generation has no
// supplied model are counted in SkippedGen rather than failed: a caller
// replaying with only the initial model still verifies every pre-promotion
// decision bit-identically.
func ReplayAuditModels(models map[int]LatencyModel, log []obs.Record) ReplayReport {
	var rep ReplayReport
	var hdr *obs.Record
	for i := range log {
		if log[i].Type == "header" {
			hdr = &log[i]
			break
		}
	}
	// lastRaw mirrors the controller's warm-start state: the raw quota
	// vector of the most recent recorded solve, which is where a
	// brownout-warm short solve began its descent.
	var lastRaw []float64
	for i := range log {
		rec := &log[i]
		if rec.Type != "decision" {
			continue
		}
		rep.Decisions++
		if len(rec.Load) == 0 || len(rec.Raw) == 0 {
			continue // reactive path: no solve to reproduce
		}
		// This record's raw output becomes the next warm solve's start —
		// tracked even for skipped records, exactly as the live controller
		// updated its own lastRaw on every solve.
		warmStart := lastRaw
		lastRaw = rec.Raw
		m, ok := models[rec.ModelGen]
		if !ok || m == nil {
			rep.SkippedGen++
			continue
		}
		rep.Solves++
		if hdr == nil {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("seq %d: no header record; cannot reconstruct solver config", rec.Seq))
			continue
		}
		cfg := SolverConfigFromMap(hdr.Solver)
		if _, known := solvers[cfg.Version]; !known {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("seq %d: header names solver version %d, which this build does not implement", rec.Seq, cfg.Version))
			continue
		}
		// A brownout-warm decision used the derived short-solve config and
		// started from the previous solve's raw output; both re-derive
		// exactly from the header and the scan state.
		start := []float64(nil)
		if rec.Warm {
			cfg = WarmSolverConfig(cfg)
			start = warmStart
		}
		sol := SolveFrom(m, rec.Load, hdr.SLO, rec.Lo, rec.Hi, cfg, start)
		ok = sol.Iterations == rec.Iters && sol.Converged == rec.Converged &&
			sol.Predicted == rec.Predicted && len(sol.Quotas) == len(rec.Raw)
		if ok {
			for i, q := range sol.Quotas {
				if q != rec.Raw[i] {
					ok = false
					break
				}
			}
		}
		if ok {
			rep.Matched++
		} else {
			rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
				"seq %d (t=%.1fs): got iters=%d conv=%v pred=%v, recorded iters=%d conv=%v pred=%v",
				rec.Seq, rec.At, sol.Iterations, sol.Converged, sol.Predicted,
				rec.Iters, rec.Converged, rec.Predicted))
		}
	}
	return rep
}

// SolverConfigMap flattens a SolverConfig for the audit-log header record.
// Version 1 is written as no key at all, so a version 1 header keeps the
// bytes it had before solvers were versioned.
func SolverConfigMap(cfg SolverConfig) map[string]float64 {
	m := map[string]float64{
		"rho":            cfg.Rho,
		"lr":             cfg.LR,
		"max_iters":      float64(cfg.MaxIters),
		"tolerance":      cfg.Tolerance,
		"patience_iters": float64(cfg.PatienceIters),
	}
	if cfg.Version != 1 {
		m["version"] = float64(cfg.Version)
	}
	return m
}

// HeaderRecord builds the audit log's opening record: everything a replay
// needs to reconstruct the recording's solver calls — the application, its
// service order, the SLO and the solver configuration.
func HeaderRecord(a *app.App, cfg ControllerConfig, at float64) obs.Record {
	return obs.Record{
		Type:     "header",
		At:       at,
		App:      a.Name,
		SLO:      cfg.SLO,
		Services: a.ServiceNames(),
		Solver:   SolverConfigMap(cfg.Solver),
	}
}

// SolverConfigFromMap inverts SolverConfigMap: the solver configuration a
// recording's header carries. A header without a version was written by
// version 1.
func SolverConfigFromMap(m map[string]float64) SolverConfig {
	version := 1
	if v, ok := m["version"]; ok {
		version = int(v)
	}
	return SolverConfig{
		Version:       version,
		Rho:           m["rho"],
		LR:            m["lr"],
		MaxIters:      int(m["max_iters"]),
		Tolerance:     m["tolerance"],
		PatienceIters: int(m["patience_iters"]),
	}
}
