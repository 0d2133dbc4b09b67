package fleet

// auditBlockLen is the size of one block of a tenant's in-memory audit log.
const auditBlockLen = 4 << 10

// auditLog is a tenant's in-memory audit stream: an append-only list of
// fixed-size blocks. Appending fills the last block and starts a new one, so
// it never copies what the log already holds — a doubling buffer copies the
// whole stream again at every doubling. A bound on the stream would drop
// its oldest blocks.
type auditLog struct {
	blocks [][]byte // all full but the last, each of capacity auditBlockLen
	n      int      // bytes written
}

// Write appends p; it never fails.
func (l *auditLog) Write(p []byte) (int, error) {
	l.n += len(p)
	for rest := p; len(rest) > 0; {
		if len(l.blocks) == 0 || len(l.blocks[len(l.blocks)-1]) == auditBlockLen {
			l.blocks = append(l.blocks, make([]byte, 0, auditBlockLen))
		}
		last := &l.blocks[len(l.blocks)-1]
		k := min(len(rest), auditBlockLen-len(*last))
		*last = append(*last, rest[:k]...)
		rest = rest[k:]
	}
	return len(p), nil
}

// Len returns how many bytes the log holds.
func (l *auditLog) Len() int { return l.n }

// Bytes returns the whole log in one new slice.
func (l *auditLog) Bytes() []byte {
	out := make([]byte, 0, l.n)
	for _, b := range l.blocks {
		out = append(out, b...)
	}
	return out
}
