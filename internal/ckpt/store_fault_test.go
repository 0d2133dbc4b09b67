package ckpt

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"graf/internal/cluster"
	"graf/internal/core"
)

// TestSaveENOSPCSurfacesAndDoesNotAdvance injects a full-disk failure into
// the store's write path and asserts the three crash-safety invariants the
// router leans on: the error is returned (not swallowed), the previous
// generation stays loadable, and neither the store's generation counter nor
// the caller's snapshot stamp advances past what is actually on disk.
func TestSaveENOSPCSurfacesAndDoesNotAdvance(t *testing.T) {
	dir := t.TempDir()
	s, err := NewNamespacedStore(dir, "router")
	if err != nil {
		t.Fatal(err)
	}

	good := &Snapshot{At: 1, Opaque: []byte("generation-one")}
	gen1, _, err := s.Save(good)
	if err != nil {
		t.Fatalf("seed save: %v", err)
	}
	if gen1 != 1 {
		t.Fatalf("seed generation = %d, want 1", gen1)
	}

	s.WriteFault = func(path string, data []byte) ([]byte, error) {
		return nil, &os.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
	}
	bad := &Snapshot{At: 2, Opaque: []byte("never-lands")}
	if _, _, err := s.Save(bad); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Save under ENOSPC returned %v, want ENOSPC", err)
	}
	if bad.Generation != 0 {
		t.Fatalf("failed Save left snap.Generation = %d, want 0 (rolled back)", bad.Generation)
	}

	// Previous generation must still load.
	snap, err := s.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest after failed save: %v", err)
	}
	if string(snap.Opaque) != "generation-one" {
		t.Fatalf("LoadLatest returned %q, want the pre-fault generation", snap.Opaque)
	}

	// The counter did not advance: the next successful save reuses the
	// generation number the failed attempt would have burned.
	s.WriteFault = nil
	gen2, _, err := s.Save(&Snapshot{At: 3, Opaque: []byte("generation-two")})
	if err != nil {
		t.Fatalf("save after fault cleared: %v", err)
	}
	if gen2 != gen1+1 {
		t.Fatalf("post-fault generation = %d, want %d (counter must not advance on failure)", gen2, gen1+1)
	}

	// And nothing from the failed attempt litters the directory.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("failed save left temp file %s behind", e.Name())
		}
	}
}

// TestSaveShortWriteQuarantinedOnLoad simulates a short write the kernel
// "accepted" — the newest generation lands truncated — and asserts LoadLatest
// quarantines it and falls back to the previous valid generation.
func TestSaveShortWriteQuarantinedOnLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := NewNamespacedStore(dir, "router")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Save(&Snapshot{At: 1, Opaque: []byte("good")}); err != nil {
		t.Fatal(err)
	}

	s.WriteFault = func(path string, data []byte) ([]byte, error) {
		return data[:len(data)/2], nil // torn in half, silently
	}
	if _, _, err := s.Save(&Snapshot{At: 2, Opaque: []byte("torn")}); err != nil {
		t.Fatalf("short write is silent at save time, got %v", err)
	}
	s.WriteFault = nil

	snap, err := s.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if string(snap.Opaque) != "good" {
		t.Fatalf("LoadLatest returned %q, want fallback to the valid generation", snap.Opaque)
	}
	corrupt, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 1 || filepath.Base(corrupt[0]) != "router-00000002.ckpt.corrupt" {
		t.Fatalf("quarantined %v, want exactly the torn generation as router-00000002.ckpt.corrupt", corrupt)
	}
}

// TestOpaqueRoundTrip pins the gob compatibility contract for the new field:
// snapshots written without Opaque decode with it empty, and an Opaque-only
// snapshot survives a save/load cycle byte-for-byte.
func TestOpaqueRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewNamespacedStore(dir, "router")
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte{0x00, 0xff, 0x42, 0x00, 0x13}
	if _, _, err := s.Save(&Snapshot{At: 7, Opaque: blob}); err != nil {
		t.Fatal(err)
	}
	snap, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap.Opaque) != string(blob) {
		t.Fatalf("Opaque round-trip mismatch: got %x want %x", snap.Opaque, blob)
	}

	legacy, err := DecodeSnapshot(mustEncode(t, &Snapshot{At: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy.Opaque) != 0 {
		t.Fatalf("legacy snapshot decoded with non-empty Opaque: %x", legacy.Opaque)
	}
}

// TestRetiredLifecycleFieldStillLoads pins gob compatibility for the
// Lifecycle []byte field snapshots used to carry: router resume and
// fleet.Restore read snapshots that older binaries wrote, and a blob in a
// field the reader no longer declares must cost nothing else.
func TestRetiredLifecycleFieldStillLoads(t *testing.T) {
	type olderSnapshot struct {
		Generation int
		At         float64
		Ticks      int
		Controller core.ControllerState
		Cluster    cluster.ClusterState
		Lifecycle  []byte
		Opaque     []byte
	}
	old := olderSnapshot{Generation: 4, At: 95, Ticks: 19,
		Lifecycle: []byte("phase, monitor, samples, model archive"), Opaque: []byte{0x00, 0x42}}
	old.Controller.LastRate = 240
	old.Controller.LastQuotas = map[string]float64{"web": 900, "db": 450}
	old.Cluster = cluster.ClusterState{At: 95, Deployments: []cluster.DeploymentState{
		{Service: "web", Quota: 900, Ready: 1, PendingReadyAt: []float64{97.5}},
	}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	s, err := NewNamespacedStore(t.TempDir(), "tenant-00")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(old.Generation), Frame(SnapshotMagic, SnapshotVersion, buf.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := s.LoadLatest()
	if err != nil {
		t.Fatalf("snapshot carrying the retired field: %v", err)
	}
	want, err := DecodeSnapshot(mustEncode(t, &Snapshot{Generation: old.Generation, At: old.At, Ticks: old.Ticks,
		Controller: old.Controller, Cluster: old.Cluster, Opaque: old.Opaque}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fields lost beside the retired one:\n got %+v\nwant %+v", got, want)
	}
	if got.Controller.LastQuotas["db"] != 450 || got.Cluster.Deployments[0].PendingReadyAt[0] != 97.5 {
		t.Fatalf("controller or cluster state not carried: %+v", got)
	}
}

func mustEncode(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	data, err := AppendSnapshot(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
