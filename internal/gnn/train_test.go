package gnn

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"graf/internal/app"
	"graf/internal/nn"
	"graf/internal/obs"
)

// randSamples draws unlearnable but well-formed samples; one has no label, so
// its loss gradient is exactly zero.
func randSamples(nodes, n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		load, quota := randInputs(rng, nodes)
		out[i] = Sample{Load: load, Quota: quota, Latency: 0.02 + rng.Float64()*0.4}
	}
	out[n/2].Latency = 0
	return out
}

type trainCase struct {
	name    string
	parents [][]int
	cfg     func(*Config)      // edits DefaultConfig
	dropout float64            // when > 0, set on every MLP, not only the readout
	tc      func(*TrainConfig) // edits the base TrainConfig
	groups  int                // > 0: a Partitioned of this many groups
}

func (c trainCase) config() Config {
	cfg := DefaultConfig(len(c.parents), c.parents)
	if c.cfg != nil {
		c.cfg(&cfg)
	}
	return cfg
}

func (c trainCase) trainConfig() TrainConfig {
	tc := TrainConfig{Iterations: 7, Batch: 12, LR: 2e-3, ValFrac: 0.2, TestFrac: 0.1, Seed: 3, EvalEvery: 3}
	if c.tc != nil {
		c.tc(&tc)
	}
	return tc
}

func (c trainCase) model(seed int64) *Model {
	m := New(c.config(), rand.New(rand.NewSource(seed)))
	if c.dropout > 0 {
		for _, net := range m.nets {
			net.Dropout = c.dropout
		}
	}
	return m
}

func trainCases() []trainCase {
	boutique := app.OnlineBoutique().Parents()
	narrow := func(c *Config) { c.Hidden, c.Embed, c.ReadoutHidden = 10, 6, 30 } // no width a multiple of 4
	cases := []trainCase{
		{name: "online-boutique", parents: boutique},
		{name: "social-network", parents: app.SocialNetwork().Parents(), cfg: narrow},
		{name: "chain-4", parents: app.SyntheticChain(4).Parents(), cfg: narrow},
		{name: "no-mpnn", parents: boutique, cfg: func(c *Config) { c.UseMPNN = false }},
		{name: "no-mpnn-batch-33", parents: boutique, cfg: func(c *Config) { c.UseMPNN = false }, // chunks overlap draws
			tc: func(tc *TrainConfig) { tc.Batch = 33 }},
		{name: "no-dropout", parents: boutique, cfg: func(c *Config) { c.Dropout = 0 }},
		{name: "dropout-everywhere", parents: boutique, cfg: narrow, dropout: 0.25},
		{name: "mse", parents: boutique, cfg: narrow, tc: func(tc *TrainConfig) { tc.Loss = nn.MSE{} }},
		{name: "no-validation", parents: boutique, cfg: narrow, tc: func(tc *TrainConfig) { tc.ValFrac = 0 }},
		{name: "obs", parents: boutique, cfg: narrow, tc: func(tc *TrainConfig) {
			tc.Obs = obs.NewTrainObs(obs.New(obs.Options{}))
		}},
		{name: "partitioned", parents: app.SyntheticChain(8).Parents(), cfg: narrow, dropout: 0.25, groups: 2},
	}
	for _, steps := range []int{1, 2, 3} {
		steps := steps
		cases = append(cases, trainCase{name: fmt.Sprintf("steps-%d", steps), parents: boutique, dropout: 0.25,
			cfg: func(c *Config) { narrow(c); c.Steps = steps }})
	}
	for _, batch := range []int{1, 7, 32, 33} { // 33 is not a multiple of trainChunk
		batch := batch
		cases = append(cases, trainCase{name: fmt.Sprintf("batch-%d", batch), parents: boutique, cfg: narrow,
			tc: func(tc *TrainConfig) { tc.Batch = batch }})
	}
	return cases
}

// The batched, row-parallel trainer is the reference loop in another
// schedule: the same weights to the byte, the same learning curve, for every
// architecture and option, at any worker count.
func TestTrainMatchesReference(t *testing.T) {
	for _, c := range trainCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			samples := randSamples(len(c.parents), 60, 11)
			// train builds the case's model afresh and returns the weights and
			// the result of one run: the reference loop's for workers < 0.
			train := func(workers int) ([][]byte, TrainResult) {
				m := c.model(5)
				subs, groups := []*Model{m}, [][]int(nil)
				reference := func() TrainResult { return refTrain(m, samples, c.trainConfig()) }
				if c.groups > 0 {
					p := NewPartitioned(c.config(), c.parents, PartitionByDepth(c.parents, c.groups), rand.New(rand.NewSource(5)))
					for _, sub := range p.Subs {
						for _, net := range sub.nets {
							net.Dropout = c.dropout
						}
					}
					subs, groups = p.Subs, p.Groups
					reference = func() TrainResult { return refTrainPartitioned(p, samples, c.trainConfig()) }
				}
				var res TrainResult
				if workers < 0 {
					res = reference()
				} else {
					res = trainLoop(subs, groups, samples, c.trainConfig(), workers)
				}
				var blobs [][]byte
				for _, sub := range subs {
					if l := staleMirror(sub); l >= 0 && workers >= 0 {
						t.Errorf("workers=%d: layer %d's mirror is stale after training", workers, l)
					}
					blob, err := sub.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					blobs = append(blobs, blob)
				}
				return blobs, res
			}
			wantBlobs, want := train(-1)
			if len(want.Curve) < 3 {
				t.Fatalf("reference recorded %d curve points, want >= 3", len(want.Curve))
			}
			for _, workers := range []int{0, 1, 2, 3, 7} {
				blobs, got := train(workers)
				for i := range blobs {
					if !bytes.Equal(blobs[i], wantBlobs[i]) {
						t.Errorf("workers=%d: sub-model %d's weights differ from the reference loop's", workers, i)
					}
				}
				if !reflect.DeepEqual(got.Curve, want.Curve) || got.BestVal != want.BestVal {
					t.Errorf("workers=%d: curve %v best %v, reference %v best %v", workers, got.Curve, got.BestVal, want.Curve, want.BestVal)
				}
				if !reflect.DeepEqual(got.Test, want.Test) {
					t.Errorf("workers=%d: test split differs from the reference's", workers)
				}
			}
		})
	}
}

// The public entry points are the loop above with the worker count chosen.
func TestTrainEntryPointsMatchReference(t *testing.T) {
	c := trainCase{parents: app.SyntheticChain(8).Parents(), dropout: 0.25,
		cfg: func(c *Config) { c.Hidden, c.Embed, c.ReadoutHidden = 10, 6, 30 }}
	samples := randSamples(8, 60, 12)
	m, ref := c.model(1), c.model(1)
	got, want := m.Train(samples, c.trainConfig()), refTrain(ref, samples, c.trainConfig())
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(m.snapshotWeights(), ref.snapshotWeights()) {
		t.Error("Model.Train differs from the reference loop")
	}
	groups := PartitionByDepth(c.parents, 2)
	p := NewPartitioned(c.config(), c.parents, groups, rand.New(rand.NewSource(2)))
	pref := NewPartitioned(c.config(), c.parents, groups, rand.New(rand.NewSource(2)))
	got, want = p.Train(samples, c.trainConfig()), refTrainPartitioned(pref, samples, c.trainConfig())
	if !reflect.DeepEqual(got, want) {
		t.Error("Partitioned.Train's result differs from the reference loop's")
	}
	for i := range p.Subs {
		if !reflect.DeepEqual(p.Subs[i].snapshotWeights(), pref.Subs[i].snapshotWeights()) {
			t.Errorf("Partitioned.Train: sub-model %d's weights differ from the reference loop's", i)
		}
	}
}

// A zero Batch or LR used to divide the zero gradient by zero and write NaN
// into every weight; both are caller bugs and must fail loudly, before any
// weight is touched.
func TestTrainPanicsOnNonPositiveBatchOrLR(t *testing.T) {
	for name, edit := range map[string]func(*TrainConfig){
		"batch=0":  func(tc *TrainConfig) { tc.Batch = 0 },
		"batch=-1": func(tc *TrainConfig) { tc.Batch = -1 },
		"lr=0":     func(tc *TrainConfig) { tc.LR = 0 },
		"lr=-1":    func(tc *TrainConfig) { tc.LR = -1e-3 },
	} {
		m := testModel(t, true)
		before := m.snapshotWeights()
		tc := trainCase{}.trainConfig()
		edit(&tc)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Train did not panic", name)
				}
			}()
			m.Train(randSamples(m.Cfg.Nodes, 20, 1), tc)
		}()
		if !reflect.DeepEqual(m.snapshotWeights(), before) {
			t.Errorf("%s: Train changed the weights before panicking", name)
		}
	}
}

// One warm training iteration runs on the trainer's tape: no per-sample
// tapes, no per-call closures, no per-barrier channels.
func TestWarmTrainingIterationAllocations(t *testing.T) {
	a := app.OnlineBoutique()
	m := New(DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(1)))
	tc := TrainConfig{Batch: 32, LR: 1e-3, Loss: nn.PaperLoss()}
	tr := newTrainer([]*Model{m}, nil, randSamples(m.Cfg.Nodes, 64, 2), tc, rand.New(rand.NewSource(3)), 2)
	defer tr.workers.stop()
	tr.iteration()
	if n := testing.AllocsPerRun(5, func() { tr.iteration() }); n > 8 {
		t.Errorf("a warm training iteration allocates %v objects, want <= 8", n)
	}
}

// BenchmarkTrainerIteration times one training iteration on Online Boutique
// at the benchmark recipe's batch of 32 and the paper's (and Full's) of 256,
// and reports it per sample too.
func BenchmarkTrainerIteration(b *testing.B) {
	a := app.OnlineBoutique()
	for _, batch := range []int{32, 256} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("batch=%d/workers=%d", batch, workers), func(b *testing.B) {
				m := New(DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(1)))
				tc := TrainConfig{Batch: batch, LR: 1e-3, Loss: nn.PaperLoss()}
				tr := newTrainer([]*Model{m}, nil, randSamples(m.Cfg.Nodes, 64, 2), tc, rand.New(rand.NewSource(3)), workers)
				defer tr.workers.stop()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr.iteration()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
			})
		}
	}
}

// Every index of a loop is worked on exactly once, by the caller or a
// helper, loop after loop, whether the helpers were polling or had gone to
// sleep; stop returns.
func TestGangRunsEveryIndexOnce(t *testing.T) {
	for _, helpers := range []int{0, 1, 3, 7} {
		var g gang
		g.start(helpers)
		hits := make([]int32, 64) // an entry is written only by whoever was handed its index
		fn := func(i int) { hits[i]++ }
		const loops = 2000
		for r := 0; r < loops; r++ {
			if r%500 == 1 {
				time.Sleep(2 * time.Millisecond) // long enough for the helpers to stop polling and sleep
			}
			g.each(len(hits)-r%2, fn)
		}
		g.stop()
		for i, h := range hits {
			if want := int32(loops); i < len(hits)-1 && h != want || i == len(hits)-1 && h != want/2 {
				t.Fatalf("helpers=%d: index %d worked on %d times in %d loops", helpers, i, h, loops)
			}
		}
	}
}
