package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFrameUnframeRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	data := Frame(SnapshotMagic, 3, payload)
	got, err := Unframe(SnapshotMagic, 3, data)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("payload %q, want %q", got, payload)
	}
	// An empty payload must survive the trip too.
	if got, err := Unframe(ModelMagic, 1, Frame(ModelMagic, 1, nil)); err != nil || len(got) != 0 {
		t.Errorf("empty payload: got %q, %v", got, err)
	}
}

// TestUnframeCorruption is the table-driven corruption sweep: every way a
// framed file can be damaged must be reported as ErrCorrupt, never as a
// silently wrong payload.
func TestUnframeCorruption(t *testing.T) {
	good := Frame(SnapshotMagic, SnapshotVersion, []byte("payload bytes here"))
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string // substring of the error detail
	}{
		{"empty file", func(b []byte) []byte { return nil }, "shorter than"},
		{"truncated header", func(b []byte) []byte { return b[:headerLen-1] }, "shorter than"},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, "bad magic"},
		{"wrong version", func(b []byte) []byte { b[11]++; return b }, "unsupported version"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, "truncated"},
		{"appended garbage", func(b []byte) []byte { return append(b, 'x') }, "truncated"},
		{"payload bit flip", func(b []byte) []byte { b[headerLen+3] ^= 0x01; return b }, "checksum"},
		{"checksum bit flip", func(b []byte) []byte { b[20] ^= 0x80; return b }, "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mut(append([]byte(nil), good...))
			_, err := Unframe(SnapshotMagic, SnapshotVersion, data)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q does not mention %q", err, tc.want)
			}
		})
	}
	// The undamaged original must still validate after all that copying.
	if _, err := Unframe(SnapshotMagic, SnapshotVersion, good); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

func TestDecodeSnapshotRejectsUndecodablePayload(t *testing.T) {
	// Checksum-valid but not a gob snapshot: schema mismatch is corruption.
	data := Frame(SnapshotMagic, SnapshotVersion, []byte("not a gob stream"))
	if _, err := DecodeSnapshot(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestEncodeDecodeSnapshotRoundTrip(t *testing.T) {
	in := &Snapshot{Generation: 7, At: 123.5}
	in.Controller.LastRate = 240
	in.Controller.LastQuotas = map[string]float64{"web": 900, "db": 450}
	data, err := AppendSnapshot(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Generation != 7 || out.At != 123.5 || out.Controller.LastRate != 240 ||
		out.Controller.LastQuotas["db"] != 450 {
		t.Errorf("round trip lost state: %+v", out)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Overwrite: readers must only ever see the old or the new content.
	if err := WriteFileAtomic(path, []byte("v2 longer content"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2 longer content" {
		t.Errorf("content %q", got)
	}
	// No temp files may be left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "state.bin" {
			t.Errorf("leftover file %q", e.Name())
		}
	}
}
