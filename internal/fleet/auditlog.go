package fleet

import (
	"bufio"
	"bytes"
	"compress/lzw"
	"fmt"
	"io"
	"sync"
)

// auditBlockLen is the size of one block of a tenant's in-memory audit log.
const auditBlockLen = 4 << 10

// auditLog is a tenant's in-memory audit stream: the full blocks written so
// far, each LZW-compressed when it filled, then one raw tail block the next
// bytes go into. Appending never copies what the log already holds — a
// doubling buffer copies the whole stream again at every doubling — and the
// JSONL records, mostly full-precision floats, take about half their size
// compressed. A bound on the stream would drop its oldest blocks.
type auditLog struct {
	codec  *auditCodec // the fleet's, shared by its tenants
	blocks [][]byte    // compressed full blocks, oldest first, each exactly sized
	tail   []byte      // the block being filled, allocated once and reused
	n      int         // bytes written
}

// Write appends p; it never fails.
func (l *auditLog) Write(p []byte) (int, error) {
	l.n += len(p)
	for rest := p; len(rest) > 0; {
		if l.tail == nil {
			l.tail = make([]byte, 0, auditBlockLen)
		}
		k := min(len(rest), auditBlockLen-len(l.tail))
		l.tail = append(l.tail, rest[:k]...)
		rest = rest[k:]
		if len(l.tail) == auditBlockLen {
			l.blocks = append(l.blocks, l.codec.compress(l.tail))
			l.tail = l.tail[:0]
		}
	}
	return len(p), nil
}

// Len returns how many bytes the log holds.
func (l *auditLog) Len() int { return l.n }

// Bytes returns the whole log in one new slice.
func (l *auditLog) Bytes() []byte {
	out := make([]byte, l.n)
	l.codec.expand(out, l.blocks)
	copy(out[len(l.blocks)*auditBlockLen:], l.tail)
	return out
}

// auditCodec compresses and expands the audit blocks of every tenant of a
// fleet. Tenants tick on parallel workers, so one encoder and one decoder
// sit behind a mutex, each built at first use and reset for every block.
// The zero value is ready to use.
type auditCodec struct {
	mu   sync.Mutex
	enc  *lzw.Writer
	sink bytes.Buffer
	// bw is enc's sink: lzw wraps a sink that is not a flushable byte
	// writer in a new 4 KB bufio.Writer at every Reset.
	bw  *bufio.Writer
	dec *lzw.Reader
	src bytes.Reader
}

// compress returns block LZW-compressed in a new, exactly sized slice.
func (c *auditCodec) compress(block []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink.Reset()
	if c.enc == nil {
		c.bw = bufio.NewWriter(&c.sink)
		c.enc = lzw.NewWriter(c.bw, lzw.LSB, 8).(*lzw.Writer)
	} else {
		c.enc.Reset(c.bw, lzw.LSB, 8)
	}
	// Writes to a bytes.Buffer do not fail, nor then does the encoder.
	c.enc.Write(block)
	c.enc.Close() // flushes bw
	out := make([]byte, c.sink.Len())
	copy(out, c.sink.Bytes())
	return out
}

// expand decodes blocks in order into dst, auditBlockLen bytes each.
func (c *auditCodec) expand(dst []byte, blocks [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, b := range blocks {
		c.src.Reset(b)
		if c.dec == nil {
			c.dec = lzw.NewReader(&c.src, lzw.LSB, 8).(*lzw.Reader)
		} else {
			c.dec.Reset(&c.src, lzw.LSB, 8)
		}
		if _, err := io.ReadFull(c.dec, dst[i*auditBlockLen:(i+1)*auditBlockLen]); err != nil {
			panic(fmt.Sprintf("fleet: audit block %d of %d does not decode: %v", i, len(blocks), err))
		}
	}
}
