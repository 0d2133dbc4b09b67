package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sync"
)

// Record is one line of the flight-recorder audit log. A single flat struct
// with a type discriminator keeps the JSONL format trivially parseable by
// jq and by ReadLog; unused fields are omitted per record type.
//
// Record types:
//   - "header": run metadata — application, SLO, solver configuration —
//     written once when a controller attaches. Replay needs it to re-run
//     solves with the exact configuration the recording used.
//   - "decision": one controller step, with its complete inputs (per-API
//     rates, distributed load vector, effective solver bounds after the
//     demand floor, workload scale, health state, chaos events active) and
//     outputs (raw solver quotas, prediction, iterations, applied quotas).
//     Kind says which path the step took: one of the eleven Kind*
//     constants in internal/core (controller.go), the only place the
//     strings are spelled.
//   - "health": a degraded-mode state transition.
//   - "brownout": a brownout-ladder transition (From/To rung names, the
//     tick and rung numbers in Summary). These live in the byte-compared
//     audit stream so deterministic re-execution reproduces degraded
//     decisions exactly.
//   - "chaos": a fault firing.
//   - "lifecycle": a model-lifecycle event — drift trip, retrain, gate
//     verdict, promotion, rollback, recovery. ModelGen on decision records
//     says which model generation produced the solve, so a replay of a run
//     that swapped models mid-flight can pick the right archived model per
//     decision and stay bit-identical.
//   - "forecast": one matured workload forecast paired with what the rate
//     actually did (Kind carries the model name, Summary the predicted/
//     actual/σ values) — the forecast-vs-actual audit trail. Replay ignores
//     these: forecast-driven decisions already carry their effective solver
//     inputs in Load/Raw, so the byte-identity contract is unchanged.
//   - "summary": final counters, written at graceful shutdown.
//
// Float64 values round-trip bit-identically through encoding/json (shortest
// round-trippable decimal), which is what makes bit-exact replay possible
// from a file on disk.
//
// A record handed to FlightRecorder.Record lends it its maps and slices for
// the call only: the recorder keeps copies of every one, so a controller can
// refill the same buffers every decision.
type Record struct {
	Type string  `json:"type"`
	At   float64 `json:"at"`
	Seq  int     `json:"seq,omitempty"`

	// Header fields.
	App      string             `json:"app,omitempty"`
	SLO      float64            `json:"slo,omitempty"`
	Services []string           `json:"services,omitempty"`
	Solver   map[string]float64 `json:"solver,omitempty"`

	// Decision fields.
	Kind      string             `json:"kind,omitempty"`
	Health    string             `json:"health,omitempty"`
	Rates     map[string]float64 `json:"rates,omitempty"`
	Total     float64            `json:"total,omitempty"`
	Load      []float64          `json:"load,omitempty"`
	Lo        []float64          `json:"lo,omitempty"`
	Hi        []float64          `json:"hi,omitempty"`
	Scale     float64            `json:"scale,omitempty"`
	Raw       []float64          `json:"raw,omitempty"` // solver output before scaling/limiting
	Predicted float64            `json:"predicted,omitempty"`
	Iters     int                `json:"iters,omitempty"`
	Converged bool               `json:"converged,omitempty"`
	Applied   map[string]float64 `json:"applied,omitempty"`
	Limited   bool               `json:"limited,omitempty"` // step limiter clamped the applied quotas
	Chaos     []string           `json:"chaos,omitempty"`
	ModelGen  int                `json:"model_gen,omitempty"` // model generation that produced the solve
	Enveloped bool               `json:"enveloped,omitempty"` // probation envelope clamped the applied quotas
	Warm      bool               `json:"warm,omitempty"`      // brownout warm rung: short solve from the previous Raw

	// Forecast fields (decision records when the forecaster drove the solve,
	// plus the dedicated "forecast" maturation records).
	FcRate        float64 `json:"fc_rate,omitempty"`         // risk-adjusted forecast rate fed to the solver
	FcPoint       float64 `json:"fc_point,omitempty"`        // point forecast at the horizon
	FcSigma       float64 `json:"fc_sigma,omitempty"`        // residual σ behind the risk band
	Prewarm       int     `json:"prewarm,omitempty"`         // instances ordered ahead of forecasted demand
	PrewarmLeadS  float64 `json:"prewarm_lead_s,omitempty"`  // forecast lead the order was placed with
	PrewarmReadyS float64 `json:"prewarm_ready_s,omitempty"` // Figure-1 readiness of the largest batch

	// Health-transition fields.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`

	// Chaos / summary fields.
	Detail  string             `json:"detail,omitempty"`
	Summary map[string]float64 `json:"summary,omitempty"`
}

// FlightRecorder appends Records to an optional JSONL sink and retains the
// most recent ones in memory (for in-process replay and inspection without
// any file). The retained records' maps and slices are the recorder's own
// copies, and Records hands out copies of those. Safe for concurrent use.
type FlightRecorder struct {
	mu   sync.Mutex
	w    *bufio.Writer
	enc  recordEncoder // each record's line, in a buffer it reuses
	mem  []Record      // a ring once full: mem[head] is the oldest record
	head int
	cap  int // max retained records; <= 0 means unbounded
	seq  int
	err  error
	drop int // records evicted from memory
	// The maps and slices of evicted records that no new record has taken
	// yet, one list per field in buffers' order: a record without a field
	// (a health record has no rates) frees its buffer, the next record that
	// has one refills it. No list holds more than cap buffers, so each is
	// made at that capacity.
	spareMaps   [4][]map[string]float64
	spareFloats [4][][]float64
	spareNames  [2][][]string
}

// buffers lists the maps and slices of r, the fields the recorder copies.
func (r *Record) buffers() ([4]*map[string]float64, [4]*[]float64, [2]*[]string) {
	return [4]*map[string]float64{&r.Rates, &r.Applied, &r.Solver, &r.Summary},
		[4]*[]float64{&r.Load, &r.Lo, &r.Hi, &r.Raw},
		[2]*[]string{&r.Services, &r.Chaos}
}

// newFlightRecorder returns a recorder writing JSONL to w (nil = memory
// only). memCap bounds the in-memory record buffer; 0 keeps everything —
// callers that replay in-process want the full log, long-running daemons
// set a cap and rely on the file.
func newFlightRecorder(w io.Writer, memCap int) *FlightRecorder {
	f := &FlightRecorder{cap: memCap}
	if memCap > 0 {
		for i := range f.spareMaps {
			f.spareMaps[i] = make([]map[string]float64, 0, memCap)
		}
		for i := range f.spareFloats {
			f.spareFloats[i] = make([][]float64, 0, memCap)
		}
		for i := range f.spareNames {
			f.spareNames[i] = make([][]string, 0, memCap)
		}
	}
	if w != nil {
		f.w = bufio.NewWriter(w)
	}
	return f
}

// Record appends one record, stamping its sequence number. rec's maps and
// slices are the caller's only for the duration of the call, so a controller
// can refill the same ones every decision: the recorder keeps copies, in
// buffers an evicted record left behind when there are some. A nil field
// stays nil. Once the memory buffer is full, a record overwrites the oldest
// in place.
func (f *FlightRecorder) Record(rec Record) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	rec.Seq = f.seq
	slot := len(f.mem)
	if f.cap > 0 && slot >= f.cap {
		slot = f.head
		f.head = (f.head + 1) % f.cap
		ms, fs, ns := f.mem[slot].buffers()
		for i, p := range ms {
			if *p != nil {
				f.spareMaps[i] = append(f.spareMaps[i], *p)
			}
		}
		for i, p := range fs {
			if *p != nil {
				f.spareFloats[i] = append(f.spareFloats[i], *p)
			}
		}
		for i, p := range ns {
			if *p != nil {
				f.spareNames[i] = append(f.spareNames[i], *p)
			}
		}
		f.drop++
	}
	if f.w != nil && f.err == nil {
		// A record encoding/json would refuse (a NaN or infinite float)
		// writes nothing and stops the stream, as json.Encoder did.
		if f.err = f.enc.encode(&rec); f.err == nil {
			_, f.err = f.w.Write(f.enc.buf)
		}
	}
	ms, fs, ns := rec.buffers()
	for i, p := range ms {
		*p = keepMap(&f.spareMaps[i], *p)
	}
	for i, p := range fs {
		*p = keepSlice(&f.spareFloats[i], *p)
	}
	for i, p := range ns {
		*p = keepSlice(&f.spareNames[i], *p)
	}
	if slot == len(f.mem) {
		f.mem = append(f.mem, rec)
	} else {
		f.mem[slot] = rec
	}
}

// keepMap copies src into a map from the spare list, or into a new one when
// none is spare. A nil src stays nil.
func keepMap(spare *[]map[string]float64, src map[string]float64) map[string]float64 {
	n := len(*spare)
	if src == nil || n == 0 {
		return maps.Clone(src)
	}
	dst := (*spare)[n-1]
	*spare = (*spare)[:n-1]
	clear(dst)
	maps.Copy(dst, src)
	return dst
}

// keepSlice is keepMap for a slice.
func keepSlice[T any](spare *[][]T, src []T) []T {
	n := len(*spare)
	if src == nil || n == 0 {
		return slices.Clone(src)
	}
	dst := (*spare)[n-1]
	*spare = (*spare)[:n-1]
	return append(dst[:0], src...)
}

// Records returns a copy of the retained in-memory records, oldest first.
// Their maps and slices are copies too: the recorder reuses its own as later
// records evict these.
func (f *FlightRecorder) Records() []Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Record, 0, len(f.mem))
	out = append(append(out, f.mem[f.head:]...), f.mem[:f.head]...)
	for i := range out {
		ms, fs, ns := out[i].buffers()
		for _, p := range ms {
			*p = maps.Clone(*p)
		}
		for _, p := range fs {
			*p = slices.Clone(*p)
		}
		for _, p := range ns {
			*p = slices.Clone(*p)
		}
	}
	return out
}

// Flush forces buffered JSONL output to the underlying writer and returns
// the first write error encountered, if any.
func (f *FlightRecorder) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.w != nil {
		if err := f.w.Flush(); err != nil && f.err == nil {
			f.err = err
		}
	}
	return f.err
}

// ErrTruncatedTail reports that the final line of an audit log did not parse
// — the signature of a crash mid-append. ReadLog still returns the valid
// prefix; callers recovering from a crash treat the error as informational,
// while callers expecting a cleanly closed log can reject it.
var ErrTruncatedTail = errors.New("obs: audit log ends in a truncated record")

// ReadLog parses a JSONL audit log previously written by a FlightRecorder.
//
// A malformed line anywhere but the end fails the whole log: that is
// corruption, not crash damage. A malformed (or unterminated) final line is
// exactly what a crash mid-append leaves behind, so ReadLog returns every
// record before it together with ErrTruncatedTail, letting warm recovery
// proceed on the valid prefix.
func ReadLog(r io.Reader) ([]Record, error) {
	recs, _, err := readLog(r)
	return recs, err
}

// readLog is ReadLog that also returns the length of the log's valid
// prefix: every byte before the first line that does not parse, blank lines
// included — the whole log when it is clean.
func readLog(r io.Reader) (out []Record, valid int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	read := 0 // bytes consumed through the end of the current line
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		read += adv
		return adv, tok, err
	})
	line, badLine := 0, 0
	var tailErr error
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			// Blank (or whitespace-only) lines are skipped; ahead of a bad
			// line they are part of the valid prefix.
			if tailErr == nil {
				valid = read
			}
			continue
		}
		if tailErr != nil {
			// The bad line has records after it: that is corruption, not a
			// torn final append, so it must not read as ErrTruncatedTail.
			return nil, 0, fmt.Errorf("obs: audit log line %d: malformed record followed by more records: corrupt log", badLine)
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			badLine = line
			tailErr = fmt.Errorf("obs: audit log line %d: %w: %v", line, ErrTruncatedTail, err)
			continue
		}
		out = append(out, rec)
		valid = read
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return out, valid, tailErr
}

// RepairLog reads the audit log at path and, if it ends in a crash-torn
// final record, truncates the file back to its valid prefix so subsequent
// appends produce a parseable log again. It returns the log's bytes as they
// stand after the repair, the parsed records and whether a torn tail was
// removed: one read and one parse of the file. Mid-file corruption is
// returned as an error and the file is left untouched.
func RepairLog(path string) (data []byte, recs []Record, repaired bool, err error) {
	data, err = os.ReadFile(path)
	if err != nil {
		return nil, nil, false, err
	}
	recs, valid, err := readLog(bytes.NewReader(data))
	if err == nil {
		return data, recs, false, nil
	}
	if !errors.Is(err, ErrTruncatedTail) {
		return nil, nil, false, err
	}
	if err := os.Truncate(path, int64(valid)); err != nil {
		return nil, recs, false, err
	}
	return data[:valid], recs, true, nil
}
