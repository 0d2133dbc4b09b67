package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func snapAt(at float64) *Snapshot {
	s := &Snapshot{At: at}
	s.Controller.LastRate = at // distinguishable payload per generation
	return s
}

func TestStoreSaveLoadPrune(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		gen, size, err := st.Save(snapAt(float64(i * 10)))
		if err != nil {
			t.Fatal(err)
		}
		if gen != i || size <= headerLen {
			t.Fatalf("save %d: gen=%d size=%d", i, gen, size)
		}
	}
	// DefaultKeep=3: generations 1 and 2 must be pruned.
	gens, err := st.generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 || gens[0] != 3 || gens[2] != 5 {
		t.Fatalf("generations after prune: %v", gens)
	}
	snap, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 5 || snap.At != 50 {
		t.Errorf("latest = gen %d at %.0f, want gen 5 at 50", snap.Generation, snap.At)
	}

	// A new store over the same directory must continue the generation
	// sequence, not restart it and shadow older snapshots.
	st2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen, _, err := st2.Save(snapAt(60))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 6 {
		t.Errorf("reopened store wrote generation %d, want 6", gen)
	}
}

func TestStoreQuarantineAndFallback(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Save(snapAt(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Save(snapAt(20)); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the newest generation: a torn write or disk
	// corruption. LoadLatest must quarantine it and fall back to gen 1.
	p2 := st.path(2)
	data, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen] ^= 0xFF
	if err := os.WriteFile(p2, data, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 1 || snap.At != 10 {
		t.Errorf("fallback loaded gen %d at %.0f, want gen 1 at 10", snap.Generation, snap.At)
	}
	// The damaged generation, and only it, is preserved for inspection.
	if corrupt, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(corrupt) != 1 || corrupt[0] != p2+".corrupt" {
		t.Errorf("quarantined %v, want exactly %s.corrupt", corrupt, filepath.Base(p2))
	}
	if _, err := os.Stat(p2); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt file still in rotation: %v", err)
	}
}

func TestStoreNoSnapshot(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty store: err = %v, want ErrNoSnapshot", err)
	}

	// Every generation corrupt → still ErrNoSnapshot, both set aside.
	if _, _, err := st.Save(snapAt(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Save(snapAt(20)); err != nil {
		t.Fatal(err)
	}
	for _, gen := range []int{1, 2} {
		if err := os.WriteFile(st.path(gen), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("all-corrupt store: err = %v, want ErrNoSnapshot", err)
	}
	ents, _ := os.ReadDir(st.Dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".corrupt" {
			t.Errorf("unquarantined file %q", e.Name())
		}
	}
}

// Namespaced stores must coexist in one directory without seeing each
// other's generations — the fleet checkpoints every tenant into a shared
// directory under a per-tenant prefix.
func TestNamespacedStoresShareADirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := NewNamespacedStore(dir, "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNamespacedStore(dir, "tenant-b")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Save(snapAt(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Save(snapAt(20)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Save(snapAt(99)); err != nil {
		t.Fatal(err)
	}

	// Each store loads only its own namespace.
	sa, err := a.LoadLatest()
	if err != nil || sa.At != 20 {
		t.Fatalf("tenant-a latest: %+v, %v; want At=20", sa, err)
	}
	sb, err := b.LoadLatest()
	if err != nil || sb.At != 99 {
		t.Fatalf("tenant-b latest: %+v, %v; want At=99", sb, err)
	}
	// b's generation counter is independent of a's.
	if sb.Generation != 1 {
		t.Errorf("tenant-b generation %d, want 1", sb.Generation)
	}

	// A reopened namespaced store resumes its own sequence.
	a2, err := NewNamespacedStore(dir, "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	if gen, _, err := a2.Save(snapAt(30)); err != nil || gen != 3 {
		t.Fatalf("reopened tenant-a wrote gen %d (%v), want 3", gen, err)
	}

	// The default store ("graf") is a namespace of its own and must not
	// see tenant files.
	d, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("default store sees tenant snapshots: %v", err)
	}

	files, _ := filepath.Glob(filepath.Join(dir, "tenant-a-*.ckpt"))
	if len(files) != 3 {
		t.Fatalf("tenant-a files: %v, want 3", files)
	}
}

// Prefixes that could escape the directory or break the filename pattern
// are rejected up front.
func TestNamespacedStoreRejectsBadPrefixes(t *testing.T) {
	dir := t.TempDir()
	for _, p := range []string{"a/b", `a\b`, "100%"} {
		if _, err := NewNamespacedStore(dir, p); err == nil {
			t.Errorf("prefix %q accepted", p)
		}
	}
}

// generations lists exactly the store's own <prefix>-<8 digits>.ckpt files in
// a directory 16 tenants share — not a tenant whose prefix extends this one
// (tenant-1 vs tenant-10), not temp files of an interrupted write, not
// quarantined .corrupt files, not names with a ninth digit or a sign.
func TestStoreListsOnlyItsOwnGenerations(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		for g := 1; g <= 3; g++ {
			write(fmt.Sprintf("tenant-%d-%08d.ckpt", i, 10*i+g))
		}
		write(fmt.Sprintf("tenant-%d-%08d.ckpt.tmp-12345", i, 10*i+4))
		write(fmt.Sprintf("tenant-%d-%08d.ckpt.corrupt", i, 10*i))
	}
	for _, name := range []string{"tenant-1-123456789.ckpt", "tenant-1-+0000001.ckpt", "tenant-1-0000001.ckpt", "tenant-1-00000x01.ckpt", "tenant-1-00000099.ckpt.bak"} {
		write(name)
	}
	s, err := NewNamespacedStore(dir, "tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	gens, err := s.generations()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{11, 12, 13}; !reflect.DeepEqual(gens, want) {
		t.Fatalf("tenant-1 lists generations %v, want %v", gens, want)
	}
	if s.lastGen != 13 {
		t.Fatalf("tenant-1 resumes after generation %d, want 13", s.lastGen)
	}
}

// A store encodes every save into the buffer it keeps, so once warm a save
// of a same-shape snapshot allocates nothing proportional to its size: the
// 256 KB payload here would show as 256 KB a save. What it wrote still
// decodes back equal.
func TestSaveReusesItsBuffer(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := richSnapshot(1)
	snap.Opaque = make([]byte, 256<<10)
	for i := range snap.Opaque {
		snap.Opaque[i] = byte(i)
	}
	save := func() {
		if _, _, err := st.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		save()
	}
	const saves = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range saves {
		save()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / saves; b > 16<<10 {
		t.Errorf("a warm save allocates %d B, want no buffer of the %d B snapshot", b, len(snap.Opaque))
	}
	// Reading: 40 allocations and 1.6 KB a save (go1.24, linux/amd64), for
	// the temp file, its name and the paths the syscalls take.
	if n := testing.AllocsPerRun(saves, save); n > 60 {
		t.Errorf("a warm save makes %.0f allocations, ceiling 60", n)
	}
	got, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("saved %+v, loaded %+v", snap, got)
	}
}
