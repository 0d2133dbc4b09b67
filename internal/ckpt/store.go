package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrNoSnapshot reports that no valid snapshot exists in the store: either
// the directory is empty (first boot) or every generation failed
// validation. The caller cold-starts.
var ErrNoSnapshot = errors.New("ckpt: no valid snapshot")

// Store persists snapshot generations in a directory, newest generation
// wins. File layout: graf-<generation>.ckpt; corrupt files are renamed to
// <name>.corrupt so they are preserved for inspection but never retried.
type Store struct {
	Dir string

	// Prefix namespaces the store's files within Dir: snapshots are named
	// <prefix>-<generation>.ckpt. Empty means "graf" — the historical
	// single-tenant layout. The fleet gives each tenant its own prefix so
	// many tenants can checkpoint into one directory without colliding.
	Prefix string

	// Keep bounds how many generations are retained (older ones are
	// pruned after each save). <= 0 keeps DefaultKeep.
	Keep int

	// WriteFault, if set, intercepts the encoded bytes just before they hit
	// the filesystem in Save. Tests inject write-path faults through it: an
	// error return simulates ENOSPC (Save must fail without advancing the
	// generation counter), and a mutated/truncated byte slice simulates a
	// short write that the kernel "accepted" (the resulting generation must
	// fail validation on load and fall back). data is the store's encode
	// buffer, overwritten by the next Save: a hook that keeps it copies it.
	// Production code leaves it nil.
	WriteFault func(path string, data []byte) ([]byte, error)

	lastGen int    // highest generation ever saved or seen
	gens    []int  // generations on disk, ascending: the constructor's listing, kept by Save, prune and LoadLatest
	buf     []byte // Save's encode buffer: a snapshot's bytes are valid until the next Save
}

// DefaultKeep is how many snapshot generations a store retains by default:
// the current one plus two fallbacks.
const DefaultKeep = 3

// NewStore returns a store rooted at dir, creating it if needed.
func NewStore(dir string) (*Store, error) {
	return NewNamespacedStore(dir, "")
}

// NewNamespacedStore returns a store rooted at dir whose files carry the
// given prefix, so several stores (e.g. one per fleet tenant) can share one
// directory. The prefix must not contain path separators.
func NewNamespacedStore(dir, prefix string) (*Store, error) {
	if strings.ContainsAny(prefix, `/\%`) {
		return nil, fmt.Errorf("ckpt: invalid prefix %q (no path separators or %%)", prefix)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{Dir: dir, Prefix: prefix}
	if gens, err := s.generations(); err == nil && len(gens) > 0 {
		s.gens, s.lastGen = gens, gens[len(gens)-1]
	}
	return s, nil
}

func (s *Store) prefix() string {
	if s.Prefix == "" {
		return "graf"
	}
	return s.Prefix
}

func (s *Store) path(gen int) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%s-%08d.ckpt", s.prefix(), gen))
}

// generations lists the on-disk generation numbers, ascending: exactly the
// names <prefix>-<8 digits>.ckpt, so other stores' files sharing the
// directory, temp files and quarantined .corrupt files are skipped unparsed.
// It reads the whole directory, so Save works from s.gens instead.
func (s *Store) generations() ([]int, error) {
	ents, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, err
	}
	var gens []int
	for _, e := range ents {
		num, ok := strings.CutPrefix(e.Name(), s.prefix()+"-")
		if !ok {
			continue
		}
		if num, ok = strings.CutSuffix(num, ".ckpt"); !ok || len(num) != 8 || strings.Trim(num, "0123456789") != "" {
			continue
		}
		g, _ := strconv.Atoi(num) // eight digits always parse
		gens = append(gens, g)
	}
	sort.Ints(gens)
	return gens, nil
}

// Save persists snap as the next generation and prunes old ones. It returns
// the generation number and the encoded size. The encoding goes through a
// buffer the store keeps, so a store that saves same-shape snapshots
// allocates no buffer proportional to their size once warm.
//
// Failure leaves the store exactly where it was: the generation counter does
// not advance (the next Save reuses the number) and snap.Generation is rolled
// back to its pre-call value, so a caller that checkpoints in-memory state
// never ends up holding a generation stamp that exists nowhere on disk.
func (s *Store) Save(snap *Snapshot) (gen, size int, err error) {
	prevGen := snap.Generation
	gen = s.lastGen + 1
	snap.Generation = gen
	defer func() {
		if err != nil {
			snap.Generation = prevGen
		}
	}()
	data, err := AppendSnapshot(s.buf[:0], snap)
	if err != nil {
		return 0, 0, err
	}
	s.buf = data
	if s.WriteFault != nil {
		data, err = s.WriteFault(s.path(gen), data)
		if err != nil {
			return 0, 0, err
		}
	}
	if err := WriteFileAtomic(s.path(gen), data, 0o644); err != nil {
		return 0, 0, err
	}
	s.lastGen = gen
	s.gens = append(s.gens, gen)
	s.prune()
	return gen, len(data), nil
}

func (s *Store) prune() {
	keep := s.Keep
	if keep <= 0 {
		keep = DefaultKeep
	}
	for len(s.gens) > keep {
		os.Remove(s.path(s.gens[0]))
		s.gens = append(s.gens[:0], s.gens[1:]...)
	}
}

// LoadLatest returns the newest snapshot that validates. A generation that
// fails validation is renamed to <file>.corrupt and the previous generation
// is tried, so a crash that tore the newest file — or a disk that flipped a
// bit in it — costs one checkpoint interval of state, not a cold start. ErrNoSnapshot means the caller
// should cold-start; any other error is an I/O problem worth surfacing.
func (s *Store) LoadLatest() (*Snapshot, error) {
	gens, err := s.generations()
	if err != nil {
		return nil, err
	}
	s.gens = gens
	for i := len(gens) - 1; i >= 0; i-- {
		p := s.path(gens[i])
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		snap, err := DecodeSnapshot(data)
		if err == nil {
			return snap, nil
		}
		if !errors.Is(err, ErrCorrupt) {
			return nil, err
		}
		if err := os.Rename(p, p+".corrupt"); err != nil {
			// Could not set it aside; removing it at least stops retry loops.
			os.Remove(p)
		}
		s.gens = gens[:i]
	}
	return nil, ErrNoSnapshot
}
