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
	// Dir is the directory the store was opened on. Its file names are
	// built from it once, so changing it moves nothing.
	Dir string

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

	// prefix namespaces the store's files within Dir: snapshots are named
	// <prefix>-<generation>.ckpt, "graf" for a NewStore — the historical
	// single-tenant layout. The fleet gives each tenant its own prefix so
	// many tenants can checkpoint into one directory without colliding.
	prefix string
	base   string // Dir/<prefix>-, every file name's start
	name   []byte // path's buffer
}

// keep is how many snapshot generations a store retains, pruning older ones
// after each save: the current one plus two fallbacks.
const keep = 3

// NewStore returns a store rooted at dir, creating it if needed.
func NewStore(dir string) (*Store, error) {
	return NewNamespacedStore(dir, "")
}

// NewNamespacedStore returns a store rooted at dir whose files carry the
// given prefix, so several stores (e.g. one per fleet tenant) can share one
// directory. The prefix must not contain path separators.
func NewNamespacedStore(dir, prefix string) (*Store, error) {
	stores, err := NewNamespacedStores(dir, prefix)
	if err != nil {
		return nil, err
	}
	return stores[0], nil
}

// NewNamespacedStores opens one store per prefix in dir from a single
// listing of it, so opening every tenant's store in a shared directory reads
// the directory once, not once per tenant. The prefixes must be distinct.
func NewNamespacedStores(dir string, prefixes ...string) ([]*Store, error) {
	stores := make([]*Store, len(prefixes))
	byPrefix := make(map[string]*Store, len(prefixes))
	for i, prefix := range prefixes {
		if strings.ContainsAny(prefix, `/\%`) {
			return nil, fmt.Errorf("ckpt: invalid prefix %q (no path separators or %%)", prefix)
		}
		if prefix == "" {
			prefix = "graf"
		}
		s := &Store{Dir: dir, prefix: prefix, base: filepath.Join(dir, prefix+"-")}
		stores[i], byPrefix[prefix] = s, s
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if prefix, gen, ok := parseName(e.Name()); ok {
			if s := byPrefix[prefix]; s != nil {
				s.gens = append(s.gens, gen)
			}
		}
	}
	for _, s := range stores {
		sort.Ints(s.gens)
		if len(s.gens) > 0 {
			s.lastGen = s.gens[len(s.gens)-1]
		}
	}
	return stores, nil
}

// path returns generation gen's file name: base, then gen in at least eight
// digits, then ".ckpt".
func (s *Store) path(gen int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(gen), 10)
	s.name = append(s.name[:0], s.base...)
	for n := len(d); n < 8; n++ {
		s.name = append(s.name, '0')
	}
	s.name = append(append(s.name, d...), ".ckpt"...)
	return string(s.name)
}

// parseName splits a name path writes into its prefix and generation.
// Anything else (a temp file, a quarantined .corrupt file, a name with a
// padded ninth digit) does not parse.
func parseName(name string) (prefix string, gen int, ok bool) {
	stem, ok := strings.CutSuffix(name, ".ckpt")
	i := strings.LastIndexByte(stem, '-')
	if !ok || i < 0 {
		return "", 0, false
	}
	num := stem[i+1:]
	if len(num) < 8 || (len(num) > 8 && num[0] == '0') || strings.Trim(num, "0123456789") != "" {
		return "", 0, false
	}
	gen, err := strconv.Atoi(num)
	return stem[:i], gen, err == nil
}

// generations lists this store's generation numbers on disk, ascending. It
// reads the whole directory, so Save works from s.gens instead.
func (s *Store) generations() ([]int, error) {
	ents, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, err
	}
	var gens []int
	for _, e := range ents {
		if prefix, gen, ok := parseName(e.Name()); ok && prefix == s.prefix {
			gens = append(gens, gen)
		}
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
	path := s.path(gen)
	if s.WriteFault != nil {
		data, err = s.WriteFault(path, data)
		if err != nil {
			return 0, 0, err
		}
	}
	if err := WriteFileAtomic(path, data, 0o644); err != nil {
		return 0, 0, err
	}
	s.lastGen = gen
	s.gens = append(s.gens, gen)
	s.prune()
	return gen, len(data), nil
}

func (s *Store) prune() {
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
