package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadLog hammers the audit-log reader with arbitrary bytes. The log is
// what crash recovery replays and what byte-identity checks compare, so the
// reader must never panic, must distinguish a crash-torn tail (recoverable:
// valid prefix + ErrTruncatedTail) from mid-file corruption (fatal), and
// the records it does return must themselves re-serialize into a log it
// reads back cleanly.
func FuzzReadLog(f *testing.F) {
	rec := func(typ string, seq int) []byte {
		b, _ := json.Marshal(Record{Type: typ, At: float64(seq), Seq: seq})
		return append(b, '\n')
	}
	valid := append(rec("header", 0), rec("decision", 1)...)
	valid = append(valid, rec("summary", 2)...)

	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Add(valid)
	f.Add(valid[:len(valid)-7])                                                   // torn final record
	f.Add(append(append([]byte{}, valid...), '{'))                                // unterminated tail append
	f.Add([]byte("{\"type\":\"header\"}\ngarbage\n" + string(rec("summary", 2)))) // mid-file corruption
	f.Add([]byte("garbage"))
	f.Add([]byte("null\n"))
	f.Add([]byte("[1,2,3]\n"))
	f.Add([]byte("{\"type\":\"decision\",\"at\":1e309}\n")) // out-of-range float
	f.Add(bytes.Repeat([]byte("x"), 1<<10))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadLog(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrTruncatedTail) {
			// Corrupt log: nothing salvageable by contract.
			if recs != nil {
				t.Fatalf("ReadLog returned %d records alongside a corruption error: %v", len(recs), err)
			}
			return
		}
		// Clean log or torn tail: the valid prefix must round-trip. This is
		// the recovery invariant — a rewrite of what ReadLog salvaged is a
		// log ReadLog accepts without complaint.
		var buf bytes.Buffer
		for _, r := range recs {
			b, merr := json.Marshal(r)
			if merr != nil {
				t.Fatalf("salvaged record does not re-marshal: %v", merr)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
		again, err2 := ReadLog(bytes.NewReader(buf.Bytes()))
		if err2 != nil {
			t.Fatalf("re-serialized prefix does not read back: %v", err2)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-serialized prefix lost records: %d -> %d", len(recs), len(again))
		}
		if err == nil {
			return
		}
		// Torn tail: appending an unparseable fragment to a clean log must
		// reproduce exactly the torn-tail verdict with the same prefix.
		torn := append(buf.Bytes(), '{')
		recs3, err3 := ReadLog(bytes.NewReader(torn))
		if !errors.Is(err3, ErrTruncatedTail) {
			t.Fatalf("appending a torn frame gave %v, want ErrTruncatedTail", err3)
		}
		if len(recs3) != len(recs) {
			t.Fatalf("torn frame changed the valid prefix: %d -> %d", len(recs), len(recs3))
		}
	})
}

// FuzzRepairLog checks the on-disk repair path: for arbitrary input bytes,
// RepairLog never panics, only rewrites the file when it found a torn tail,
// and is idempotent — a repaired log needs no second repair and reads back
// the same records.
func FuzzRepairLog(f *testing.F) {
	rec := func(seq int) []byte {
		b, _ := json.Marshal(Record{Type: "decision", At: float64(seq), Seq: seq})
		return append(b, '\n')
	}
	valid := append(rec(1), rec(2)...)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(append(append([]byte{}, valid...), "{\"type\":"...))
	f.Add([]byte("garbage\n" + string(rec(2))))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "audit.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, recs, repaired, err := RepairLog(path)
		if err != nil {
			if repaired {
				t.Fatalf("RepairLog reported repaired=true alongside error %v", err)
			}
			if !errors.Is(err, ErrTruncatedTail) {
				// Mid-file corruption: the file must be untouched.
				after, rerr := os.ReadFile(path)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if !bytes.Equal(after, data) {
					t.Fatalf("RepairLog modified a corrupt file it refused to repair")
				}
			}
			return
		}
		_, recs2, repaired2, err2 := RepairLog(path)
		if err2 != nil {
			t.Fatalf("second RepairLog errored on a repaired log: %v", err2)
		}
		if repaired2 {
			t.Fatalf("RepairLog not idempotent: second pass repaired again")
		}
		if len(recs2) != len(recs) {
			t.Fatalf("repair changed the record count across passes: %d -> %d", len(recs), len(recs2))
		}
		if !repaired {
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(after, data) {
				t.Fatalf("RepairLog modified a clean file")
			}
		}
	})
}
