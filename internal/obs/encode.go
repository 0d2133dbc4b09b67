package obs

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// recordEncoder writes Records as JSON without reflection, into one buffer
// it reuses. Its bytes are exactly json.Marshal's, which is what keeps every
// recorded audit digest and the v1 audit fixture valid; the fuzz target
// FuzzRecordEncoder holds it to that.
type recordEncoder struct {
	buf  []byte
	keys []string // a map's keys, sorted in place
	err  error    // the first float encoding/json would refuse
}

// encode replaces the buffer's contents with r's JSON line: json.Marshal(r)
// plus '\n'. This function is the one place the audit log's field order
// lives: Record's fields in declaration order, under their tag names, the
// omitempty ones left out at their zero value. A NaN or infinite float fails
// with the error json.Marshal returns, and the buffer then holds nothing
// worth writing.
func (e *recordEncoder) encode(r *Record) error {
	e.buf, e.err = append(e.buf[:0], `{"type":`...), nil
	e.str(r.Type)
	e.buf = append(e.buf, `,"at":`...)
	e.float(r.At)
	e.optInt(`,"seq":`, r.Seq)

	e.optStr(`,"app":`, r.App)
	e.optFloat(`,"slo":`, r.SLO)
	e.optStrs(`,"services":`, r.Services)
	e.optMap(`,"solver":`, r.Solver)

	e.optStr(`,"kind":`, r.Kind)
	e.optStr(`,"health":`, r.Health)
	e.optMap(`,"rates":`, r.Rates)
	e.optFloat(`,"total":`, r.Total)
	e.optFloats(`,"load":`, r.Load)
	e.optFloats(`,"lo":`, r.Lo)
	e.optFloats(`,"hi":`, r.Hi)
	e.optFloat(`,"scale":`, r.Scale)
	e.optFloats(`,"raw":`, r.Raw)
	e.optFloat(`,"predicted":`, r.Predicted)
	e.optInt(`,"iters":`, r.Iters)
	e.optBool(`,"converged":`, r.Converged)
	e.optMap(`,"applied":`, r.Applied)
	e.optBool(`,"limited":`, r.Limited)
	e.optStrs(`,"chaos":`, r.Chaos)
	e.optInt(`,"model_gen":`, r.ModelGen)
	e.optBool(`,"enveloped":`, r.Enveloped)
	e.optBool(`,"warm":`, r.Warm)

	e.optFloat(`,"fc_rate":`, r.FcRate)
	e.optFloat(`,"fc_point":`, r.FcPoint)
	e.optFloat(`,"fc_sigma":`, r.FcSigma)
	e.optInt(`,"prewarm":`, r.Prewarm)
	e.optFloat(`,"prewarm_lead_s":`, r.PrewarmLeadS)
	e.optFloat(`,"prewarm_ready_s":`, r.PrewarmReadyS)

	e.optStr(`,"from":`, r.From)
	e.optStr(`,"to":`, r.To)

	e.optStr(`,"detail":`, r.Detail)
	e.optMap(`,"summary":`, r.Summary)
	e.buf = append(e.buf, '}', '\n')
	return e.err
}

func (e *recordEncoder) optStr(key, s string) {
	if s != "" {
		e.buf = append(e.buf, key...)
		e.str(s)
	}
}

func (e *recordEncoder) optInt(key string, n int) {
	if n != 0 {
		e.buf = strconv.AppendInt(append(e.buf, key...), int64(n), 10)
	}
}

func (e *recordEncoder) optBool(key string, b bool) {
	if b {
		e.buf = append(append(e.buf, key...), "true"...)
	}
}

func (e *recordEncoder) optFloat(key string, f float64) {
	if f != 0 {
		e.buf = append(e.buf, key...)
		e.float(f)
	}
}

func (e *recordEncoder) optStrs(key string, ss []string) {
	if len(ss) == 0 {
		return
	}
	e.buf = append(e.buf, key...)
	for i, s := range ss {
		e.sep(i, '[')
		e.str(s)
	}
	e.buf = append(e.buf, ']')
}

func (e *recordEncoder) optFloats(key string, fs []float64) {
	if len(fs) == 0 {
		return
	}
	e.buf = append(e.buf, key...)
	for i, f := range fs {
		e.sep(i, '[')
		e.float(f)
	}
	e.buf = append(e.buf, ']')
}

// sep opens a list with open before its element 0 and separates the others.
func (e *recordEncoder) sep(i int, open byte) {
	if i == 0 {
		e.buf = append(e.buf, open)
	} else {
		e.buf = append(e.buf, ',')
	}
}

// optMap writes m with its keys in ascending order, as encoding/json does.
func (e *recordEncoder) optMap(key string, m map[string]float64) {
	if len(m) == 0 {
		return
	}
	e.buf = append(e.buf, key...)
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	for i, k := range e.keys {
		e.sep(i, '{')
		e.str(k)
		e.buf = append(e.buf, ':')
		e.float(m[k])
	}
	e.buf = append(e.buf, '}')
	clear(e.keys) // the scratch must not keep a record's keys alive
}

// float writes f as encoding/json does: the shortest decimal that reads back
// as f, in exponent form outside [1e-6, 1e21), with the exponent unpadded.
func (e *recordEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1] // e-07 → e-7
		e.buf = e.buf[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// str writes s as a JSON string the way encoding/json does with HTML
// escaping on (json.Marshal's and json.Encoder's default): quote, backslash
// and control bytes escaped, as are <, > and &, U+2028 and U+2029; each byte
// of invalid UTF-8 becomes \ufffd.
func (e *recordEncoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.buf = append(append(b, s[start:]...), '"')
}
