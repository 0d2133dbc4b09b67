package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"graf/internal/gnn"
)

// modelHash is the sha256 of a model's serialized weights.
func modelHash(t *testing.T, m *gnn.Model) string {
	t.Helper()
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestPipelineModelBytesArePinned pins the bytes of every model the figures
// train at the quick scale, recorded on amd64 at f2e08d8. A change to the
// offline recipe that moves one of them moves every figure; it must be
// deliberate and re-record the value. Other architectures may fuse
// multiply-adds and are skipped.
func TestPipelineModelBytesArePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64")
	}
	boutique := boutiquePipeline(quick())
	noMPNN, _ := trainNoMPNN(boutique)
	for _, c := range []struct {
		name string
		m    *gnn.Model
		want string
	}{
		{"boutique", boutique.Model, "b003d02cf9bbc63da084c1276d1b074a7ae1fe216ba02831840097623283b101"},
		{"boutique no-MPNN", noMPNN, "d342488851668287882104d64b750730783b7441b2de57330d89dc3d1dda0050"},
		{"social", socialPipeline(quick()).Model, "8502d2c446a676604b8ac4a1ed7a0590bbfc18c7b40fe194f0cdb3157138ae9c"},
	} {
		if got := modelHash(t, c.m); got != c.want {
			t.Errorf("%s model sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSolverLoopTrainsTheBenchmarkModel: -exp solver-loop's seed-1 model is
// byte for byte graf.Train's at the repo benchmark's options (the root
// TestTrainModelBytesArePinned records the same hash).
func TestSolverLoopTrainsTheBenchmarkModel(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hash recorded on amd64")
	}
	const want = "d39c736c53257a028add8016e801c47d946bb76c8265bb2dd29d880711c67763"
	if got := modelHash(t, solverLoopModel(1).Model); got != want {
		t.Errorf("solver-loop seed-1 model sha256 = %s, want %s", got, want)
	}
}
