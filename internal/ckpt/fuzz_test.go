package ckpt

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot feeds the GRAFCKP1 decoder arbitrary bytes, both as a
// whole file and as the payload of a valid frame (random bytes almost never
// pass the checksum, so the framed form is what reaches gob). Decoding never
// panics, and a snapshot that decodes re-encodes through AppendSnapshot to a
// file that decodes to the same snapshot.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range []*Snapshot{{}, richSnapshot(1), {Generation: 2, Opaque: []byte("router")}} {
		data, err := AppendSnapshot(nil, s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[headerLen:])
	}
	f.Add([]byte("not a gob stream"))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, data := range [][]byte{b, Frame(SnapshotMagic, SnapshotVersion, b)} {
			s, err := DecodeSnapshot(data)
			if err != nil {
				continue
			}
			again, err := AppendSnapshot(nil, s)
			if err != nil {
				t.Fatalf("re-encode of a decoded snapshot: %v", err)
			}
			s2, err := DecodeSnapshot(again)
			if err != nil {
				t.Fatalf("decode of a re-encoded snapshot: %v", err)
			}
			if !gobEqual(reflect.ValueOf(s).Elem(), reflect.ValueOf(s2).Elem()) {
				t.Fatalf("decode → encode → decode moved the snapshot:\n%+v\n%+v", s, s2)
			}
			var fresh bytes.Buffer
			if err := gob.NewEncoder(&fresh).Encode(s); err != nil || fresh.Len() != len(again)-headerLen {
				t.Fatalf("fresh encoder wrote %d bytes (%v), the warmed one %d", fresh.Len(), err, len(again)-headerLen)
			}
		}
	})
}

// gobEqual is reflect.DeepEqual up to what gob cannot carry: an empty slice
// or map decodes to nil, and NaN equals NaN (it round-trips, but is never ==).
func gobEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || (x != x && y != y)
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return gobEqual(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !gobEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !gobEqual(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !gobEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// A checksum-valid snapshot whose LastQuotas claims 2^32 entries is corrupt,
// and found so without gob sizing a map by the claim (the fuzzer's first find:
// it ran the process out of memory).
func TestDecodeSnapshotRejectsMapCountBomb(t *testing.T) {
	var g GobEncoder[Snapshot]
	s := &Snapshot{}
	s.Controller.LastQuotas = map[string]float64{"q": 1}
	if _, err := g.Append(nil, s); err != nil {
		t.Fatal(err)
	}
	msg := g.buf.Bytes() // the value message: one-byte length, then the value
	i := bytes.Index(msg, []byte{1, 1, 'q'})
	if msg[0] >= 0x7b || i < 0 {
		t.Fatalf("unexpected value message %x", msg)
	}
	bomb := append([]byte{msg[0] + 5}, msg[1:i]...)
	bomb = append(bomb, 0xfb, 1, 0, 0, 0, 0) // the count 2^32: five bytes follow 0xfb
	bomb = append(bomb, msg[i+1:]...)
	_, err := DecodeSnapshot(Frame(SnapshotMagic, SnapshotVersion, append(g.prefix, bomb...)))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("map-count bomb: %v, want ErrCorrupt", err)
	}
}
