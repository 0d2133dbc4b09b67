package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// auditText is n bytes of audit-like JSONL: full-precision floats, which is
// what the blocks mostly hold, so a block compresses as a real one does.
func auditText(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	for b.Len() < n {
		fmt.Fprintf(&b, `{"t":%d,"kind":"decision","p99":%v,"quota":[%v,%v]}`+"\n",
			b.Len(), rng.Float64(), rng.Float64()*1500, rng.NormFloat64())
	}
	return b.Bytes()[:n]
}

// checkAuditLog writes each of writes into a fresh log and checks that the
// log reads back their concatenation, twice.
func checkAuditLog(t *testing.T, writes [][]byte) {
	t.Helper()
	l := auditLog{codec: new(auditCodec)}
	var want []byte
	for _, w := range writes {
		if n, err := l.Write(w); n != len(w) || err != nil {
			t.Fatalf("Write(%d bytes) = %d, %v", len(w), n, err)
		}
		want = append(want, w...)
	}
	if l.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", l.Len(), len(want))
	}
	got := l.Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("Bytes() differs from the %d bytes written (got %d)", len(want), len(got))
	}
	if again := l.Bytes(); !bytes.Equal(again, got) {
		t.Fatalf("a second Bytes() differs from the first")
	}
	if full := len(want) / auditBlockLen; len(l.blocks) != full || len(l.tail) != len(want)%auditBlockLen {
		t.Fatalf("%d compressed blocks and a %d-byte tail, want %d and %d", len(l.blocks), len(l.tail), full, len(want)%auditBlockLen)
	}
}

// splitAt cuts b at the given offsets.
func splitAt(b []byte, at ...int) [][]byte {
	var out [][]byte
	prev := 0
	for _, i := range at {
		out = append(out, b[prev:i])
		prev = i
	}
	return append(out, b[prev:])
}

func TestAuditLogRoundTrip(t *testing.T) {
	const B = auditBlockLen
	text := auditText(1, 5*B+100)
	for _, tc := range []struct {
		name   string
		writes [][]byte
	}{
		{"nothing", nil},
		{"empty writes", [][]byte{{}, nil, {}}},
		{"one short write", splitAt(text[:100])},
		{"one write larger than a block", splitAt(text[:2*B+7])},
		{"writes ending on a block boundary", splitAt(text[:2*B], B-10, B, 2*B-1)},
		{"exactly one block", splitAt(text[:B])},
		{"exactly three blocks", splitAt(text[:3*B], 17, B+1, 2*B)},
		{"empty writes between blocks", splitAt(text[:2*B+5], B, B, 2*B, 2*B)},
		{"incompressible bytes", splitAt(bytes.Repeat([]byte{0, 255, 7, 128, 3}, B))},
		{"one repeated byte", splitAt(bytes.Repeat([]byte{'x'}, 3*B+1), B/2)},
		{"five blocks and a tail", splitAt(text, 1, B, 3*B+50, 5*B)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkAuditLog(t, tc.writes) })
	}
}

// The fleet's tenants share one codec and write on parallel workers.
func TestAuditLogsShareTheCodec(t *testing.T) {
	c := new(auditCodec)
	logs := make([]auditLog, 4)
	texts := make([][]byte, len(logs))
	done := make(chan int)
	for i := range logs {
		logs[i].codec = c
		texts[i] = auditText(int64(i), 6*auditBlockLen+i)
		go func(i int) {
			for rest := texts[i]; len(rest) > 0; {
				k := min(len(rest), 333)
				logs[i].Write(rest[:k])
				rest = rest[k:]
			}
			done <- i
		}(i)
	}
	for range logs {
		<-done
	}
	for i := range logs {
		if !bytes.Equal(logs[i].Bytes(), texts[i]) {
			t.Errorf("log %d does not read back what was written to it", i)
		}
	}
}

// FuzzAuditLog writes audit-like text into a log in pieces whose lengths
// are the bytes of cuts, scaled by 37 so that a few cuts reach past a block
// end (the input stays small, which keeps the minimizer fast).
func FuzzAuditLog(f *testing.F) {
	f.Add(int64(1), []byte{10, 200, 0, 255, 111})
	f.Add(int64(2), []byte{111, 0, 0, 110, 1})
	f.Add(int64(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, cuts []byte) {
		total := 0
		for _, c := range cuts {
			total += int(c) * 37
		}
		text := auditText(seed, total)
		var writes [][]byte
		for _, c := range cuts {
			writes = append(writes, text[:int(c)*37])
			text = text[int(c)*37:]
		}
		checkAuditLog(t, writes)
	})
}
