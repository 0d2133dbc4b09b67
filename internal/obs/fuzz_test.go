package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// FuzzRecordEncoder holds the flight recorder's hand-written encoder to
// json.Marshal. It fills every exported field of a Record from the fuzzer's
// bytes through reflect — a field of a type it cannot fill fails, and a field
// the encoder does not write differs from Marshal's bytes — records it and a
// second record after it, and requires the recorder's output to be each
// record's json.Marshal plus '\n'. A record Marshal refuses (a NaN or
// infinite float) must fail the recorder with Marshal's error and leave
// nothing written, the record after it included.
func FuzzRecordEncoder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	// Strings that need escaping, as every string field and map key.
	f.Add(bytes.Repeat([]byte("\x0b<a>&\"\\\n\t\x01\x7f\xe2\x80\xa8\xe2\x80\xa9\xff\xc3"), 40))
	f.Add(bytes.Repeat([]byte{3, 0x80, 0xfe, 0x01}, 100))
	f.Add(bytes.Repeat([]byte{255}, 64)) // NaN
	f.Add(bytes.Repeat([]byte{254}, 64)) // +Inf

	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzBytes(data)
		var rec Record
		fillRecord(t, reflect.ValueOf(&rec).Elem(), &src)
		next := Record{Type: "summary", At: 1}

		var buf bytes.Buffer
		fr := newFlightRecorder(&buf, 1)
		fr.Record(rec)
		fr.Record(next)
		err := fr.Flush()

		rec.Seq, next.Seq = 1, 2
		want, merr := json.Marshal(rec)
		if merr != nil {
			if err == nil || err.Error() != merr.Error() {
				t.Fatalf("json.Marshal fails with %v, the recorder with %v", merr, err)
			}
			if buf.Len() != 0 {
				t.Fatalf("a refused record left %q in the stream", buf.Bytes())
			}
			return
		}
		if err != nil {
			t.Fatalf("recorder failed on a record json.Marshal encodes: %v", err)
		}
		second, _ := json.Marshal(next)
		want = append(append(append(want, '\n'), second...), '\n')
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("audit bytes differ from json.Marshal + newline:\n got %q\nwant %q", buf.Bytes(), want)
		}
	})
}

// fuzzBytes hands out a fuzz input as the values of a record, reading zeros
// once it runs out.
type fuzzBytes []byte

func (s *fuzzBytes) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// str returns up to 15 raw bytes: any byte string, invalid UTF-8 included.
func (s *fuzzBytes) str() string {
	n := min(int(s.byte()%16), len(*s))
	v := string((*s)[:n])
	*s = (*s)[n:]
	return v
}

// fuzzFloats are the values where encoding/json's number format changes.
var fuzzFloats = []float64{1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-10, 1e21, math.Nextafter(1e21, 0),
	1e20, 1e100, -1e-300, 5e-324, math.MaxFloat64, 0.1, -2.5, 100, math.Copysign(0, -1), 1 << 53}

// float returns 0, NaN, ±Inf, a format boundary or any finite bit pattern.
func (s *fuzzBytes) float() float64 {
	switch b := s.byte(); {
	case b == 0:
		return 0
	case b == 255:
		return math.NaN()
	case b == 254:
		return math.Inf(1)
	case b == 253:
		return math.Inf(-1)
	case b < 64:
		return fuzzFloats[int(b)%len(fuzzFloats)]
	default:
		var bits uint64
		for i := 0; i < 8; i++ {
			bits = bits<<8 | uint64(s.byte())
		}
		if v := math.Float64frombits(bits); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
		return float64(b)
	}
}

// count returns -1 (nil) or a length from 0 (empty, not nil) to 3.
func (s *fuzzBytes) count() int { return int(s.byte()%5) - 1 }

var (
	stringsType = reflect.TypeFor[[]string]()
	floatsType  = reflect.TypeFor[[]float64]()
	mapType     = reflect.TypeFor[map[string]float64]()
)

// fillRecord sets every exported field of v, a Record, from src.
func fillRecord(t *testing.T, v reflect.Value, src *fuzzBytes) {
	for i := 0; i < v.NumField(); i++ {
		fv, sf := v.Field(i), v.Type().Field(i)
		switch {
		case fv.Kind() == reflect.String:
			fv.SetString(src.str())
		case fv.Kind() == reflect.Float64:
			fv.SetFloat(src.float())
		case fv.Kind() == reflect.Int:
			fv.SetInt(int64(int16(uint16(src.byte())<<8 | uint16(src.byte()))))
		case fv.Kind() == reflect.Bool:
			fv.SetBool(src.byte()&1 == 1)
		case sf.Type == stringsType || sf.Type == floatsType:
			if n := src.count(); n >= 0 {
				fv.Set(reflect.MakeSlice(sf.Type, n, n))
				for j := 0; j < n; j++ {
					if sf.Type == stringsType {
						fv.Index(j).SetString(src.str())
					} else {
						fv.Index(j).SetFloat(src.float())
					}
				}
			}
		case sf.Type == mapType:
			if n := src.count(); n >= 0 {
				m := make(map[string]float64, n)
				for j := 0; j < n; j++ {
					m[src.str()] = src.float()
				}
				fv.Set(reflect.ValueOf(m))
			}
		default:
			t.Fatalf("Record.%s is a %s, which FuzzRecordEncoder cannot fill: teach it and the encoder the type", sf.Name, sf.Type)
		}
	}
}
