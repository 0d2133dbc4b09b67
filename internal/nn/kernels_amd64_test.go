package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// tileSets are the AVX row kernel's two tile sets, each checked against the
// Go kernel: with the ZMM tiles, as on a host whose CPUID reports AVX-512F,
// and without them, as on a host with AVX alone.
var tileSets = []struct {
	name string
	zmm  bool
}{{"zmm", true}, {"ymm", false}}

// hostZMM is the choice CPUID made; the tests below flip useAVX512 and put
// it back.
var hostZMM = useAVX512

// withTiles runs f with the ZMM tiles on or off, then restores CPUID's
// choice.
func withTiles(zmm bool, f func()) {
	defer func() { useAVX512 = hostZMM }()
	useAVX512 = zmm
	f()
}

// kernelRows are the row counts the kernels are checked at: every remainder of
// the four-row tiles, one and several tiles, and a training chunk's worth.
var kernelRows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 48}

// tileWidths and tileRows are layer sides and row counts at the edges of the
// tiles: one column short of, at and past 16 and 32, three ZMM vectors, and
// the widest layer; one row, the rows of a tile and either side of them, and
// many tiles.
var (
	tileWidths = []int{15, 16, 17, 31, 32, 33, 48, 120}
	tileRows   = []int{1, 3, 4, 5, 48}
)

// The AVX kernels are the Go kernels to the bit, with the ZMM tiles and
// without, for layer shapes up to 130 × 130 — every shape with a side of at
// most 20, every third one beyond — each at one of kernelRows in turn, and at
// 48 rows every 64th shape; and for every pair of tileWidths at each of
// tileRows: every tile and tail of the row kernel's 4 × 16/8/4/1 and
// 1 × 32/16/4/1 blocks, along rows and columns.
func TestAVXKernelsMatchGo(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this host")
	}
	for _, ts := range tileSets {
		t.Run(ts.name, func(t *testing.T) {
			if ts.zmm && !hostZMM {
				t.Skip("no AVX-512F on this host")
			}
			rng := rand.New(rand.NewSource(13))
			pool := make([]float64, 1<<16)
			for i := range pool {
				pool[i] = special(rng)
			}
			fill := func(v []float64) {
				for len(v) > 0 {
					v = v[copy(v, pool[rng.Intn(len(pool)):]):]
				}
			}
			check := func(in, out, n int) {
				if err := checkKernels(in, out, n, fill); err != nil {
					t.Fatalf("Linear(%d,%d) × %d rows: %v", in, out, n, err)
				}
			}
			withTiles(ts.zmm, func() {
				for in := 1; in <= 130; in++ {
					for out := 1; out <= 130; out++ {
						if in > 20 && out > 20 && (in+out)%3 != 0 {
							continue
						}
						check(in, out, kernelRows[(in+out)%(len(kernelRows)-1)])
						if (in*131+out)%64 == 0 {
							check(in, out, 48)
						}
					}
				}
				for _, in := range tileWidths {
					for _, out := range tileWidths {
						for _, n := range tileRows {
							check(in, out, n)
						}
					}
				}
			})
		})
	}
}

// FuzzLinearKernels is TestAVXKernelsMatchGo on fuzzed shapes, row counts
// and values, each input checked with the ZMM tiles (where the host has
// AVX-512F) and without. Values come from the input's bytes while they last;
// NaN and ±Inf, which no trained weight holds and whose payloads the kernels
// do not promise to keep, are replaced by draws.
func FuzzLinearKernels(f *testing.F) {
	f.Add(uint8(20), uint8(20), int64(1), []byte{})
	f.Add(uint8(129), uint8(16), int64(2), make([]byte, 64))
	f.Fuzz(func(t *testing.T, in, out uint8, seed int64, raw []byte) {
		if !useAVX {
			t.Skip("no AVX on this host")
		}
		n := kernelRows[int(uint64(seed)%uint64(len(kernelRows)))]
		for _, ts := range tileSets {
			if ts.zmm && !hostZMM {
				continue
			}
			rng, bytes := rand.New(rand.NewSource(seed)), raw // the same values on both
			fill := func(v []float64) {
				for i := range v {
					v[i] = special(rng)
					if len(bytes) >= 8 {
						if u := math.Float64frombits(binary.LittleEndian.Uint64(bytes)); !math.IsNaN(u) && !math.IsInf(u, 0) {
							v[i] = u
						}
						bytes = bytes[8:]
					}
				}
			}
			var err error
			withTiles(ts.zmm, func() { err = checkKernels(int(in)%130+1, int(out)%130+1, n, fill) })
			if err != nil {
				t.Fatalf("%s tiles: %v", ts.name, err)
			}
		}
	})
}
