package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graf/internal/nn"
	"graf/internal/obs"
)

// TrainConfig parameterizes supervised training (§3.4, Table 1). The
// paper's full budget is 7×10⁴ iterations of batch 256 at LR 2×10⁻⁴ on a
// GPU; callers scale Iterations down for CPU budgets.
type TrainConfig struct {
	Iterations int
	Batch      int
	LR         float64
	ValFrac    float64 // fraction of samples held out for validation
	TestFrac   float64 // fraction held out for testing (Table 2)
	Loss       nn.LossFunc
	Seed       int64

	// EvalEvery controls how often train/validation losses are recorded
	// into the learning curve (0 = every 50 iterations).
	EvalEvery int

	// Obs, if set, streams the learning curve and per-batch wall timing to
	// the telemetry subsystem. Nil disables the instrumentation and the
	// wall-clock reads that feed it.
	Obs *obs.TrainObs
}

// DefaultTrainConfig returns the paper's hyperparameters (Table 1) with an
// iteration budget scaled for CPU training.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Iterations: 3000,
		Batch:      256,
		LR:         2e-4,
		ValFrac:    0.15,
		TestFrac:   0.15,
		Loss:       nn.PaperLoss(),
		Seed:       1,
		EvalEvery:  50,
	}
}

// CurvePoint is one learning-curve observation (Fig 11).
type CurvePoint struct {
	Iteration int
	Train     float64
	Val       float64
}

// TrainResult reports the outcome of Train.
type TrainResult struct {
	Curve   []CurvePoint
	BestVal float64
	Test    []Sample // the held-out test split, for Table 2 evaluation
}

// Train runs minibatch Adam over the samples, holding out validation and
// test splits, and restores the weights that achieved the best validation
// loss (the paper: "the validation set is used to prevent overfitting and
// save the best performance GNN"). tc.Loss is called from several goroutines
// at once. It panics on a non-positive Batch or LR, which could only turn
// every weight into NaN.
func (m *Model) Train(samples []Sample, tc TrainConfig) TrainResult {
	return trainLoop([]*Model{m}, nil, samples, tc, 0)
}

// trainLoop is the one training loop: subs are the sub-models whose outputs
// sum to the prediction (a Model is a list of one), groups their node indices
// (nil = the one sub-model sees every node). workers = 0 picks the worker
// count; the trained weights do not depend on it.
func trainLoop(subs []*Model, groups [][]int, samples []Sample, tc TrainConfig, workers int) TrainResult {
	if tc.Batch <= 0 || tc.LR <= 0 {
		panic(fmt.Sprintf("gnn: Train needs Batch > 0 and LR > 0, got Batch=%d LR=%g", tc.Batch, tc.LR))
	}
	if tc.Loss == nil {
		tc.Loss = nn.PaperLoss()
	}
	if tc.EvalEvery <= 0 {
		tc.EvalEvery = 50
	}
	rng := rand.New(rand.NewSource(tc.Seed))
	shuffled := append([]Sample(nil), samples...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	nVal := int(float64(len(shuffled)) * tc.ValFrac)
	nTest := int(float64(len(shuffled)) * tc.TestFrac)
	val := shuffled[:nVal]
	test := shuffled[nVal : nVal+nTest]
	train := shuffled[nVal+nTest:]
	if len(train) == 0 {
		panic("gnn: no training samples after splits")
	}

	t := newTrainer(subs, groups, train, tc, rng, workers)
	defer t.workers.stop()
	res := TrainResult{BestVal: -1, Test: test}
	var bestSnaps [][][]float64 // one buffer per sub-model, reused at every improvement

	for iter := 0; iter < tc.Iterations; iter++ {
		var tBatch time.Time
		if tc.Obs != nil {
			tBatch = time.Now()
		}
		batchLoss := t.iteration()
		if tc.Obs != nil {
			tc.Obs.Batch(time.Since(tBatch).Nanoseconds())
		}

		if iter%tc.EvalEvery == 0 || iter == tc.Iterations-1 {
			v, loss := t.evalSet(val), batchLoss/float64(tc.Batch)
			res.Curve = append(res.Curve, CurvePoint{Iteration: iter, Train: loss, Val: v})
			tc.Obs.Eval(iter, loss, v)
			if len(val) > 0 && (res.BestVal < 0 || v < res.BestVal) {
				res.BestVal = v
				if bestSnaps == nil {
					bestSnaps = make([][][]float64, len(subs))
				}
				for si, m := range subs {
					bestSnaps[si] = m.snapshotInto(bestSnaps[si])
				}
			}
		}
	}
	for si, snap := range bestSnaps {
		subs[si].restoreWeights(snap)
	}
	return res
}

// trainChunk is how many samples of a minibatch are on tape at once: the
// tape, not the batch, bounds training's memory (~50 KB a sample on Online
// Boutique; the paper's batch is 256). At 16 a batch of 32 is two chunks,
// with half the barriers of 8-sample chunks and twice the rows per kernel
// call; at 32 an iteration is faster still, but the tape adds ~0.6 MB of peak
// RSS. evalChunk is the same for the validation tapes, which only run the
// forward, so a larger one would buy little and cost memory.
const (
	trainChunk = 16
	evalChunk  = 8
)

// trainer runs the iterations of one Train call. An iteration takes the
// minibatch in chunks of trainChunk samples, each in two parallel phases that
// differ from a serial loop only in schedule:
//
//   - per part of the chunk's samples: the layer-major forward, the loss and
//     the backward over those samples' rows, which only read the weights.
//     Sample picks and dropout masks are drawn beforehand, on the calling
//     goroutine while the helpers run the previous phase, in the order a
//     serial loop draws them.
//   - per span of parameter rows: the weight gradient over all of the
//     chunk's rows of that layer in one kernel call, samples in batch order
//     and, within a sample, invocations in backward's order (γ by node, φ by
//     edge), so every GW/GB entry receives a serial loop's addends in a
//     serial loop's order, whichever worker takes the span.
//
// Adam is element-wise and steps span by span. The weights come out
// byte-equal for any worker count and any interleaving. Validation runs the
// forward the same way, on tapes without dropout.
type trainer struct {
	subs     []*Model
	groups   [][]int
	train    []Sample
	batch    int
	loss     nn.LossFunc
	rng      *rand.Rand
	opt      *nn.Adam
	fit, val tapes  // the chunk's training tapes; tapes without dropout, for validation
	on       *tapes // the set the open pass phase runs on
	n        int    // samples of the current chunk
	parts    int    // the chunk's samples are cut into this many parts
	spans    []span // the parameter rows, in units of work
	workers  gang
	drawAt   int // the minibatch sample the chunk drawNext draws starts at

	// The phases as func values, made once so that running one allocates nothing.
	pass, eval, weightGrad, step func(i int)
	drawNext                     func()
}

// tapes is one Scratch per sub-model and, per sample of the chunk, its label
// and the loss of the summed prediction against it.
type tapes struct {
	scr             []*Scratch
	latency, losses []float64
}

// span is rows [lo, hi) of layer li of network net of sub-model sub; layer is
// that layer's position in the optimizer.
type span struct{ sub, net, li, layer, lo, hi int }

func newTrainer(subs []*Model, groups [][]int, train []Sample, tc TrainConfig, rng *rand.Rand, workers int) *trainer {
	nodes := 0
	for _, m := range subs {
		nodes += m.Cfg.Nodes
	}
	for _, s := range train { // here, not as a panic on a helper goroutine
		if len(s.Load) != nodes || len(s.Quota) != nodes {
			panic(fmt.Sprintf("gnn: expected %d nodes, got load=%d quota=%d", nodes, len(s.Load), len(s.Quota)))
		}
	}
	if workers == 0 {
		workers = min(runtime.GOMAXPROCS(0), trainChunk, tc.Batch)
	}
	t := &trainer{subs: subs, groups: groups, train: train, batch: tc.Batch, loss: tc.Loss, rng: rng, parts: workers}
	t.fit, t.val = newTapes(subs, min(trainChunk, tc.Batch), true), newTapes(subs, evalChunk, false)
	layers, spans := rowSpans(subs)
	for _, l := range layers {
		clear(l.GW)
		clear(l.GB)
	}
	t.opt, t.spans = nn.NewAdam(tc.LR, layers), spans
	t.pass, t.eval, t.weightGrad, t.step = t.passPart, t.evalPart, t.weightGradSpan, t.stepSpan
	t.drawNext = func() { t.drawChunk(t.drawAt) }
	t.workers.start(workers - 1)
	t.drawChunk(0)
	return t
}

func newTapes(subs []*Model, n int, train bool) tapes {
	ts := tapes{latency: make([]float64, n), losses: make([]float64, n)}
	for _, m := range subs {
		ts.scr = append(ts.scr, m.newScratch(n, train))
	}
	return ts
}

// rowSpans lists every parameter layer and cuts their rows into spans of at
// most spanRows: with the layers' widths that is a few dozen units of
// comparable cost, enough for handing them out one by one to balance any
// worker count.
func rowSpans(subs []*Model) (layers []*nn.Linear, spans []span) {
	const spanRows = 32
	for si, m := range subs {
		for ni, net := range m.nets {
			for li, l := range net.Layers {
				for lo := 0; lo < l.Out; lo += spanRows {
					spans = append(spans, span{sub: si, net: ni, li: li, layer: len(layers), lo: lo, hi: min(lo+spanRows, l.Out)})
				}
				layers = append(layers, l)
			}
		}
	}
	return layers, spans
}

// iteration runs one minibatch and the optimizer step, and returns the sum
// of the samples' losses. Its first chunk is drawn already; each later one is
// drawn while the helpers start on the previous one's weight gradients, and
// the next iteration's first while they start on the step.
func (t *trainer) iteration() (batchLoss float64) {
	for done := 0; done < t.batch; done += t.n {
		t.n = t.chunk(done)
		t.on = &t.fit
		t.workers.each(min(t.parts, t.n), t.pass)
		for _, l := range t.fit.losses[:t.n] {
			batchLoss += l
		}
		t.drawAt = done + t.n
		if t.drawAt < t.batch {
			t.workers.eachWhile(len(t.spans), t.weightGrad, t.drawNext)
		} else {
			t.workers.each(len(t.spans), t.weightGrad)
		}
	}
	t.opt.Next()
	t.drawAt = 0
	t.workers.eachWhile(len(t.spans), t.step, t.drawNext)
	return batchLoss
}

// chunk returns the size of the chunk of the minibatch that starts at sample
// done.
func (t *trainer) chunk(done int) int { return min(len(t.fit.latency), t.batch-done) }

// drawChunk picks the samples of the chunk that starts at sample done, and
// their dropout masks, onto the training tapes: the pass of the chunk before
// is over, and the weight gradients read neither features nor masks.
func (t *trainer) drawChunk(done int) {
	for c := 0; c < t.chunk(done); c++ {
		s := t.train[t.rng.Intn(len(t.train))]
		t.setSample(&t.fit, c, s)
		for si, m := range t.subs {
			m.drawMasks(t.fit.scr[si], c, t.rng)
		}
	}
}

// evalSet returns the mean loss over set, the samples' losses summed in
// order.
func (t *trainer) evalSet(set []Sample) float64 {
	if len(set) == 0 {
		return 0
	}
	sum := 0.0
	t.on = &t.val
	for done := 0; done < len(set); done += t.n {
		t.n = min(len(t.val.latency), len(set)-done)
		for c, s := range set[done : done+t.n] {
			t.setSample(&t.val, c, s)
		}
		t.workers.each(min(t.parts, t.n), t.eval)
		for _, l := range t.val.losses[:t.n] {
			sum += l
		}
	}
	return sum / float64(len(set))
}

// setSample puts s into sample c of ts.
func (t *trainer) setSample(ts *tapes, c int, s Sample) {
	ts.latency[c] = s.Latency
	for si, m := range t.subs {
		var group []int
		if t.groups != nil {
			group = t.groups[si]
		}
		m.setInput(ts.scr[si], c, s.Load, s.Quota, group)
	}
}

// forwardLoss runs part p of the chunk forward on t.on, records each sample's
// loss and sets each one's output gradient; it returns the part's samples.
func (t *trainer) forwardLoss(p int) (lo, hi int) {
	parts := min(t.parts, t.n)
	lo, hi = p*t.n/parts, (p+1)*t.n/parts
	ts := t.on
	for si, m := range t.subs {
		m.forwardRows(ts.scr[si], lo, hi)
	}
	for c := lo; c < hi; c++ {
		pred := 0.0
		for _, s := range ts.scr {
			pred += s.read.Out()[c]
		}
		var d float64
		ts.losses[c], d = t.loss.Loss(pred, ts.latency[c])
		for _, s := range ts.scr {
			s.read.DOut[c] = d
		}
	}
	return lo, hi
}

func (t *trainer) passPart(p int) {
	lo, hi := t.forwardLoss(p)
	for si, m := range t.subs {
		m.backwardRows(t.fit.scr[si], lo, hi, false)
	}
}

func (t *trainer) evalPart(p int) { t.forwardLoss(p) }

func (t *trainer) weightGradSpan(i int) {
	sp := t.spans[i]
	m := t.subs[sp.sub]
	m.nets[sp.net].WeightGrad(t.fit.scr[sp.sub].nets[sp.net], t.n*m.perSample(sp.net), sp.li, sp.lo, sp.hi)
}

func (t *trainer) stepSpan(i int) {
	sp := t.spans[i]
	t.opt.StepRows(sp.layer, sp.lo, sp.hi, float64(t.batch))
}

// gang is a set of helper goroutines for a caller that runs one parallel loop
// at a time. Helpers are optional: a loop does not wait for one that has not
// arrived (in a busy process its goroutine may not run for milliseconds),
// only for those inside it. A phase of an iteration is a few hundred
// microseconds and a sleeping thread takes about as long to wake up, so
// whoever waits — a helper for the next loop, the caller for the helpers
// inside — first polls, yielding the processor each time round, and sleeps
// only after gangSpins rounds of that.
type gang struct {
	fn     func(i int)    // the open loop's body; nil tells the helpers to return
	n      int32          // and its length
	next   atomic.Int32   // its next index not yet handed out
	epoch  atomic.Int32   // odd while a loop is open to helpers
	inside atomic.Int32   // helpers that may be inside the loop
	mu     sync.Mutex     // orders a sleeper's last look at epoch/inside with signal
	wake   sync.Cond      // on mu
	alive  sync.WaitGroup // helpers not yet returned
}

// gangSpins bounds the polling at about 50 µs.
const gangSpins = 400

func (g *gang) start(helpers int) {
	g.wake.L = &g.mu
	for ; helpers > 0; helpers-- {
		g.alive.Add(1)
		go func() {
			defer g.alive.Done()
			for e := int32(1); ; e += 2 {
				e = g.await(&g.epoch, func(v int32) bool { return v >= e && v%2 == 1 })
				g.inside.Add(1)
				// While e is still open the caller cannot move on, or
				// change fn, until this helper has left.
				if open := g.epoch.Load() == e; open && g.fn == nil {
					return
				} else if open {
					g.work()
				}
				if g.inside.Add(-1) == 0 {
					g.signal()
				}
			}
		}()
	}
}

// work runs the loop body on indices until none are left.
func (g *gang) work() {
	for i := g.next.Add(1) - 1; i < g.n; i = g.next.Add(1) - 1 {
		g.fn(int(i))
	}
}

// await returns v's value once ok holds of it.
func (g *gang) await(v *atomic.Int32, ok func(int32) bool) int32 {
	for spins := 0; spins < gangSpins; spins++ {
		if x := v.Load(); ok(x) {
			return x
		}
		runtime.Gosched()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	x := v.Load()
	for ; !ok(x); x = v.Load() {
		g.wake.Wait()
	}
	return x
}

// signal wakes the sleepers after epoch or inside changed: one that looked
// before the change holds mu until it sleeps, so it is not missed.
func (g *gang) signal() {
	g.mu.Lock()
	g.mu.Unlock()
	g.wake.Broadcast()
}

// each calls fn(i) once for every i in [0, n), on the caller and on the
// helpers that turn up while indices are left, and returns when all calls have.
func (g *gang) each(n int, fn func(i int)) { g.eachWhile(n, fn, nil) }

// eachWhile is each with the caller first running meanwhile (unless nil),
// while the helpers start on the loop, and then joining it.
func (g *gang) eachWhile(n int, fn func(i int), meanwhile func()) {
	g.fn, g.n = fn, int32(n)
	g.next.Store(0)
	g.epoch.Add(1)
	g.signal()
	if meanwhile != nil {
		meanwhile()
	}
	g.work()
	g.epoch.Add(1)
	g.await(&g.inside, func(v int32) bool { return v == 0 })
}

// stop ends the helpers and waits for them to return.
func (g *gang) stop() {
	g.fn = nil
	g.epoch.Add(1)
	g.signal()
	g.alive.Wait()
}

// RegionError is one row of the paper's Table 2: the mean absolute
// percentage error of predictions whose *true* latency falls in
// [LoMS, HiMS) milliseconds.
type RegionError struct {
	LoMS, HiMS float64
	MAPE       float64 // mean |pred-true|/true
	Count      int
}

// Evaluate reproduces Table 2 on a sample set: per-region mean absolute
// percentage error plus the mean signed overestimation across all samples.
func (m *Model) Evaluate(set []Sample, regions [][2]float64) (rows []RegionError, overestimate float64) {
	return evaluate(m.Predict, set, regions)
}

func evaluate(predict func(load, quota []float64) float64, set []Sample, regions [][2]float64) (rows []RegionError, overestimate float64) {
	rows = make([]RegionError, len(regions))
	for ri, r := range regions {
		rows[ri] = RegionError{LoMS: r[0], HiMS: r[1]}
	}
	signedSum := 0.0
	n := 0
	for _, s := range set {
		if s.Latency <= 0 {
			continue
		}
		pe := (predict(s.Load, s.Quota) - s.Latency) / s.Latency
		signedSum += pe
		n++
		ms := s.Latency * 1000
		for ri := range rows {
			if row := &rows[ri]; ms >= row.LoMS && ms < row.HiMS {
				row.MAPE += math.Abs(pe)
				row.Count++
			}
		}
	}
	for ri := range rows {
		if rows[ri].Count > 0 {
			rows[ri].MAPE /= float64(rows[ri].Count)
		}
	}
	if n > 0 {
		overestimate = signedSum / float64(n)
	}
	return rows, overestimate
}

// DefaultRegions returns the paper's Table 2 latency strata (milliseconds),
// scaled so the top edge covers maxMS: four bands from fast to tail.
func DefaultRegions(maxMS float64) [][2]float64 {
	if maxMS <= 0 {
		maxMS = 1000
	}
	return [][2]float64{
		{0, maxMS * 0.25},
		{maxMS * 0.25, maxMS * 0.5},
		{maxMS * 0.5, maxMS},
		{maxMS, maxMS * 10},
	}
}

// EvaluateRegions is Evaluate over DefaultRegions sized to the set's label
// range — the probe the lifecycle promotion gate uses to compare a canary
// candidate against the incumbent stratum by stratum.
func (m *Model) EvaluateRegions(set []Sample) ([]RegionError, float64) {
	maxMS := 0.0
	for _, s := range set {
		if ms := s.Latency * 1000; ms > maxMS {
			maxMS = ms
		}
	}
	return m.Evaluate(set, DefaultRegions(maxMS))
}
