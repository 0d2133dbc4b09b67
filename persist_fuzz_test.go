package graf

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"graf/internal/app"
	"graf/internal/ckpt"
	"graf/internal/gnn"
)

// FuzzDecodeModelFile feeds the GRAFMDL1 decoder arbitrary bytes, both as a
// whole file and as the payload of a valid frame (random bytes almost never
// pass the checksum, so the framed form is what reaches gob and the model's
// own decoder). Decoding never panics, and a model that decodes re-encodes
// to a file that decodes and re-encodes to the same bytes.
func FuzzDecodeModelFile(f *testing.F) {
	a := app.SyntheticChain(4)
	n := len(a.Services)
	for i, cfg := range []gnn.Config{gnn.DefaultConfig(n, a.Parents()), {Nodes: n, Parents: a.Parents(), Hidden: 3, Embed: 2, ReadoutHidden: 4}} {
		lo, hi := make([]float64, n), make([]float64, n)
		for j := range lo {
			lo[j], hi[j] = 100, 1500
		}
		blob, err := encodeTrained(&TrainedModel{
			Model: gnn.New(cfg, rand.New(rand.NewSource(int64(i)))), Bounds: Bounds{Lo: lo, Hi: hi},
			MinRate: 50, MaxRate: 400, SLO: 250 * time.Millisecond,
			Samples: []Sample{{Load: lo, Quota: hi, Latency: 0.2}},
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[24:]) // the payload alone: the fuzz body frames it
	}
	f.Add([]byte("not a model"))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, data := range [][]byte{b, ckpt.Frame(ckpt.ModelMagic, modelFileVersion, b)} {
			m, err := decodeTrained(data)
			if err != nil {
				continue
			}
			again, err := encodeTrained(m)
			if err != nil {
				t.Fatalf("re-encode of a decoded model: %v", err)
			}
			m2, err := decodeTrained(again)
			if err != nil {
				t.Fatalf("decode of a re-encoded model: %v", err)
			}
			if twice, err := encodeTrained(m2); err != nil || !bytes.Equal(twice, again) {
				t.Fatalf("decode → encode is not a fixed point (%v)", err)
			}
		}
	})
}
