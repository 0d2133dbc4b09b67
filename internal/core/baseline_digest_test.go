package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"graf/internal/app"
	"graf/internal/autoscale"
	"graf/internal/cluster"
	"graf/internal/sim"
	"graf/internal/workload"
)

// baselineSurge is the one seeded workload every baseline run sees: a base
// rate, a three-minute surge, and a long tail back at the base rate so the
// HPA's 300 s scale-down stabilization runs out inside the window.
func baselineSurge(t float64) float64 {
	if t >= 60 && t < 240 {
		return 220
	}
	return 40
}

const baselineUntil = 600.0

// allocTrace is every service's replica count and quota, sampled every 5 s
// of simulated time.
type allocTrace [][]float64

// sample schedules the samples up to baselineUntil.
func (tr *allocTrace) sample(eng *sim.Engine, cl *cluster.Cluster) {
	for at := 5.0; at <= baselineUntil; at += 5 {
		eng.At(at, func() {
			var row []float64
			for _, name := range cl.App.ServiceNames() {
				d := cl.Deployment(name)
				row = append(row, float64(d.Replicas()), d.Quota())
			}
			*tr = append(*tr, row)
		})
	}
}

// digest folds the trace into one FNV-64a hash.
func (tr allocTrace) digest() uint64 {
	h := fnv.New64a()
	for _, row := range tr {
		for _, v := range row {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	return h.Sum64()
}

// TestBaselinesMatchParent pins the instance and quota traces of the HPA at
// two thresholds, the FIRM-like controller and the vanilla GRAF loop on one
// seeded surge, against digests recorded before their configuration structs
// became constants. A change that should not move a baseline must leave
// every digest as it is.
func TestBaselinesMatchParent(t *testing.T) {
	type starter func(cl *cluster.Cluster) (start, stop func())
	hpa := func(th float64) starter {
		return func(cl *cluster.Cluster) (func(), func()) {
			h := autoscale.NewHPA(cl, th)
			return h.Start, h.Stop
		}
	}
	firm := func(cl *cluster.Cluster) (func(), func()) {
		f := autoscale.NewFIRMLike(cl)
		return f.Start, f.Stop
	}
	run := func(start starter) allocTrace {
		eng := sim.NewEngine(31)
		cl := cluster.New(eng, app.OnlineBoutique(), cluster.DefaultConfig())
		var tr allocTrace
		tr.sample(eng, cl)
		on, off := start(cl)
		on()
		gen := workload.NewOpenLoop(cl, baselineSurge)
		gen.Start()
		eng.RunUntil(baselineUntil)
		gen.Stop()
		off()
		eng.Run()
		return tr
	}
	var graf allocTrace
	sc := scenario{seed: 31, cfg: VanillaControllerConfig(0.150), rate: baselineSurge, until: baselineUntil,
		script: func(r *scriptRig) { graf.sample(r.eng, r.cl) }}
	sc.run(t)

	cases := []struct {
		name string
		tr   allocTrace
		want uint64
	}{
		{"hpa-0.1", run(hpa(0.1)), 0x618993cc14c41477},
		{"hpa-0.5", run(hpa(0.5)), 0x849badcf31c8c1de},
		{"firm", run(firm), 0x6a0d92f957fcc615},
		{"vanilla-graf", graf, 0xa3165cf80c0c6604},
	}
	for _, c := range cases {
		// The surge's last sample must differ from the first, or the
		// controller never acted and the digest pins nothing.
		if len(c.tr) != int(baselineUntil/5) || slices.Equal(c.tr[0], c.tr[47]) {
			t.Errorf("%s: %d samples, allocation at t=240 equals t=5: the run never scaled", c.name, len(c.tr))
		}
		if got := c.tr.digest(); got != c.want {
			t.Errorf("%s: trace digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
