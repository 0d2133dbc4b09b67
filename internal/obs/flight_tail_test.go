package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tornLog writes n good records followed by an optional torn half-record —
// the bytes a crash mid-append leaves behind.
func tornLog(t *testing.T, n int, tail string) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	f := newFlightRecorder(&buf, 0)
	for i := 0; i < n; i++ {
		f.Record(Record{Type: "decision", At: float64(i + 1), Kind: "solve", Total: 40})
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(tail)
	return &buf
}

func TestReadLogToleratesTruncatedTail(t *testing.T) {
	buf := tornLog(t, 3, `{"type":"decision","at":4.0,"kind":"so`)
	recs, err := ReadLog(buf)
	if !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("err = %v, want ErrTruncatedTail", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records from the valid prefix, want 3", len(recs))
	}
	for i, r := range recs {
		if r.At != float64(i+1) {
			t.Errorf("record %d at %.1f, want %d", i, r.At, i+1)
		}
	}
}

func TestReadLogTruncatedWithoutNewline(t *testing.T) {
	// A crash can also tear the record before its terminating newline was
	// ever written; the scanner still surfaces the partial final line.
	buf := tornLog(t, 2, `{"type":"dec`)
	recs, err := ReadLog(buf)
	if !errors.Is(err, ErrTruncatedTail) || len(recs) != 2 {
		t.Fatalf("got %d records, err %v; want 2 records and ErrTruncatedTail", len(recs), err)
	}
}

func TestReadLogRejectsMidFileCorruption(t *testing.T) {
	// The same torn bytes followed by a further record is not crash damage:
	// the writer kept going past a malformed line, so the log is corrupt and
	// must not be half-trusted.
	buf := tornLog(t, 2, "{\"type\":\"dec\n{\"type\":\"decision\",\"at\":9}\n")
	recs, err := ReadLog(buf)
	if err == nil || errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("err = %v, want a non-truncation corruption error", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name the corrupt line", err)
	}
	if recs != nil {
		t.Errorf("corrupt log still returned %d records", len(recs))
	}
}

func TestReadLogCleanRoundTripUnchanged(t *testing.T) {
	buf := tornLog(t, 4, "")
	recs, err := ReadLog(buf)
	if err != nil || len(recs) != 4 {
		t.Fatalf("clean log: %d records, err %v", len(recs), err)
	}
}

func TestRepairLogTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	buf := tornLog(t, 3, `{"type":"decision","at":4.0,"kind":"so`)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, repaired, err := RepairLog(path)
	if err != nil || !repaired || len(recs) != 3 {
		t.Fatalf("repair: %d records, repaired=%v, err %v; want 3, true, nil", len(recs), repaired, err)
	}
	// The file itself must now parse cleanly — the torn bytes are gone.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := ReadLog(bytes.NewReader(data)); err != nil || len(recs) != 3 {
		t.Fatalf("repaired file: %d records, err %v", len(recs), err)
	}

	// A restarted daemon appends to the repaired file; the combined log must
	// stay parseable. This is the repeated crash/restart cycle grafd relies on.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec := newFlightRecorder(f, 0)
	rec.Record(Record{Type: "decision", At: 5, Kind: "solve", Total: 40})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := ReadLog(bytes.NewReader(data)); err != nil || len(recs) != 4 {
		t.Fatalf("after post-repair append: %d records, err %v; want 4, nil", len(recs), err)
	}

	// A clean log is a no-op: same records back, nothing rewritten.
	_, recs, repaired, err = RepairLog(path)
	if err != nil || repaired || len(recs) != 4 {
		t.Fatalf("clean-log repair: %d records, repaired=%v, err %v; want 4, false, nil", len(recs), repaired, err)
	}

	// Mid-file corruption must be refused, not repaired away.
	bad := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(bad, []byte("{\"bad\n{\"type\":\"decision\",\"at\":9}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(bad)
	_, _, repaired, err = RepairLog(bad)
	if err == nil || repaired {
		t.Fatalf("mid-file corruption: repaired=%v, err %v; want refusal", repaired, err)
	}
	after, _ := os.ReadFile(bad)
	if !bytes.Equal(before, after) {
		t.Error("refused repair still modified the file")
	}
}
