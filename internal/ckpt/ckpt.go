// Package ckpt is the GRAF control plane's crash-safe state persistence
// layer. It has two pieces:
//
//   - a framed, checksummed file envelope (Frame/Unframe/WriteFileAtomic)
//     shared by controller snapshots and trained-model files: any torn
//     write, truncation or bit flip is detected on load instead of being
//     deserialized into silently wrong state;
//   - a generation Store that keeps the last few snapshot files, detects a
//     corrupt newest generation, quarantines it, and falls back to the
//     previous valid one.
//
// Restarting a dead controller from what the Store holds is the caller's
// business: fleet.Restore re-executes a tenant to its snapshot and verifies
// it, and the recovery experiment (internal/bench) restores a controller in
// place against a cluster that outlived it.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"graf/internal/cluster"
	"graf/internal/core"
)

// SnapshotMagic and ModelMagic identify the two framed file types. Both are
// exactly 8 bytes.
const (
	SnapshotMagic = "GRAFCKP1"
	ModelMagic    = "GRAFMDL1"
)

// SnapshotVersion is the current snapshot payload schema version.
const SnapshotVersion uint32 = 1

// ErrCorrupt reports a framed file that failed validation: wrong magic,
// unsupported version, truncated payload, or checksum mismatch. Callers use
// errors.Is to distinguish corruption (quarantine, fall back) from I/O
// errors.
var ErrCorrupt = errors.New("ckpt: corrupt file")

// Snapshot is one checkpoint of the control plane: the controller's full
// decision state and the cluster's authoritative scaling state, taken at the
// same simulated instant.
type Snapshot struct {
	Generation int
	At         float64
	// Ticks counts completed fleet control ticks at snapshot time. The
	// multi-process control plane resumes a migrated tenant by
	// deterministic re-execution up to exactly this tick count; gob decodes
	// old snapshots without the field to 0 (single-tenant snapshots never
	// read it).
	Ticks      int
	Controller core.ControllerState
	Cluster    cluster.ClusterState

	// Snapshots older binaries wrote may carry a Lifecycle []byte field. Gob
	// skips a field the reader does not declare, so they still load; never
	// declare a field of that name with another type, or they stop loading
	// (TestRetiredLifecycleFieldStillLoads).

	// Opaque carries a store-owner-defined payload for snapshots that are
	// not controller checkpoints at all — the fleet router persists its
	// placement/epoch state as a gob blob here (namespace "router"), reusing
	// the same framed envelope, generation rotation, and quarantine fallback
	// without ckpt learning the router's schema. Empty for controller
	// snapshots; gob decodes old snapshots without the field to empty.
	Opaque []byte
}

// headerLen is magic[8] + version u32 + payloadLen u64 + crc32 u32.
const headerLen = 8 + 4 + 8 + 4

// Frame wraps payload in the versioned, CRC-checksummed envelope:
//
//	magic[8] | version (u32 BE) | len(payload) (u64 BE) | CRC32-IEEE(payload) (u32 BE) | payload
//
// magic must be exactly 8 bytes.
func Frame(magic string, version uint32, payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	copy(out[headerLen:], payload)
	putHeader(out, magic, version)
	return out
}

// putHeader fills framed[:headerLen] for the payload framed[headerLen:].
func putHeader(framed []byte, magic string, version uint32) {
	if len(magic) != 8 {
		panic(fmt.Sprintf("ckpt: magic %q must be 8 bytes", magic))
	}
	payload := framed[headerLen:]
	copy(framed, magic)
	binary.BigEndian.PutUint32(framed[8:], version)
	binary.BigEndian.PutUint64(framed[12:], uint64(len(payload)))
	binary.BigEndian.PutUint32(framed[20:], crc32.ChecksumIEEE(payload))
}

// Unframe validates the envelope and returns the payload. Every validation
// failure wraps ErrCorrupt with a description of what was wrong.
func Unframe(magic string, version uint32, data []byte) ([]byte, error) {
	if len(magic) != 8 {
		panic(fmt.Sprintf("ckpt: magic %q must be 8 bytes", magic))
	}
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(data), headerLen)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, data[:8], magic)
	}
	if v := binary.BigEndian.Uint32(data[8:]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, v, version)
	}
	n := binary.BigEndian.Uint64(data[12:])
	if n != uint64(len(data)-headerLen) {
		return nil, fmt.Errorf("%w: payload truncated: header says %d bytes, file has %d", ErrCorrupt, n, len(data)-headerLen)
	}
	payload := data[headerLen:]
	want := binary.BigEndian.Uint32(data[20:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	return payload, nil
}

// WriteFileAtomic writes data to path crash-safely: a temp file in the same
// directory, fsync, rename over the target, then fsync of the directory. A
// crash at any point leaves either the old file or the new one — never a
// torn mixture.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil { // after a rename there is nothing to remove
			os.Remove(tmpName)
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	// Persist the rename itself. Directory fsync is best-effort: some
	// filesystems refuse it, and the rename is already atomic.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// GobEncoder writes values of one type as self-contained gob streams — what
// gob.NewEncoder(w).Encode(v) writes, and what a fresh gob.Decoder reads —
// but builds T's type descriptors once instead of once per value. gob sends
// a type's descriptors before its first value only, so encoding a zero T
// twice on one encoder tells them apart: the first output minus the second
// is the descriptor prefix. Every later value is encoded on that warmed
// encoder and emitted behind the prefix. The stream has the length of a
// fresh encoder's and decodes to the same value; only gob's random map
// order can make the bytes differ. Safe for concurrent use.
type GobEncoder[T any] struct {
	mu     sync.Mutex
	enc    *gob.Encoder // nil until warmed, and again after an encode error
	buf    bytes.Buffer // enc's sink, reused across calls
	prefix []byte       // T's type descriptors
}

// Append appends the gob stream of *v to dst.
func (g *GobEncoder[T]) Append(dst []byte, v *T) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.enc == nil {
		if err := g.warm(); err != nil {
			return dst, err
		}
	}
	g.buf.Reset()
	if err := g.enc.Encode(v); err != nil {
		g.enc = nil // gob may have left it mid-message
		return dst, err
	}
	dst = slices.Grow(dst, len(g.prefix)+g.buf.Len())
	return append(append(dst, g.prefix...), g.buf.Bytes()...), nil
}

func (g *GobEncoder[T]) warm() error {
	var zero T
	g.buf.Reset()
	enc := gob.NewEncoder(&g.buf)
	if err := enc.Encode(&zero); err != nil {
		return err
	}
	first := g.buf.Len()
	if err := enc.Encode(&zero); err != nil {
		return err
	}
	g.prefix = append(g.prefix[:0], g.buf.Bytes()[:2*first-g.buf.Len()]...)
	g.enc = enc
	return nil
}

var snapshotGob GobEncoder[Snapshot]

// AppendSnapshot appends a snapshot's framed on-disk form to dst. On error
// dst is returned unchanged.
func AppendSnapshot(dst []byte, s *Snapshot) ([]byte, error) {
	start := len(dst)
	out, err := snapshotGob.Append(append(dst, make([]byte, headerLen)...), s)
	if err != nil {
		return dst, err
	}
	putHeader(out[start:], SnapshotMagic, SnapshotVersion)
	return out, nil
}

// snapshotProbe declares none of Snapshot's maps. A checksum-valid payload
// can still claim a map of 2^40 entries, and gob allocates a map it decodes
// at its claimed size before reading one entry. A map the receiver does not
// declare, gob skips entry by entry instead, allocating nothing, so a first
// decode into snapshotProbe fails on any count larger than the bytes behind
// it, and the real decode only ever sees counts the payload can hold.
type snapshotProbe struct{ Generation int }

// DecodeSnapshot validates a framed snapshot file and deserializes it. Gob
// decode failures of a checksum-valid payload are also reported as
// ErrCorrupt: the frame proved integrity, so an undecodable payload means
// the writer and reader disagree on the schema.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	payload, err := Unframe(SnapshotMagic, SnapshotVersion, data)
	if err != nil {
		return nil, err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snapshotProbe{}); err != nil {
		return nil, fmt.Errorf("%w: undecodable payload: %v", ErrCorrupt, err)
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: undecodable payload: %v", ErrCorrupt, err)
	}
	return &s, nil
}
