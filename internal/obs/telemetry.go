package obs

import (
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
)

// Telemetry bundles the two observability planes — the metrics registry and
// the flight recorder — plus the shared state they need (which chaos events
// are currently active). One Telemetry instance observes one simulation.
type Telemetry struct {
	Reg    *Registry
	Flight *FlightRecorder

	mu     sync.Mutex
	active []chaosWindow

	trcMu     sync.Mutex
	tracer    *Tracer
	trcParent SpanContext
}

// SetTracer attaches a control-plane tracer to the bundle; the controller
// stage/solver hooks then mirror their measurements as trace spans parented
// under the context set by SetTraceParent. Nil-safe.
func (t *Telemetry) SetTracer(tr *Tracer) {
	if t == nil {
		return
	}
	t.trcMu.Lock()
	t.tracer = tr
	t.trcMu.Unlock()
}

// SetTraceParent names the span under which subsequent hook measurements
// nest — the fleet sets it to the tenant's current tick span before running
// the controller. Nil-safe.
func (t *Telemetry) SetTraceParent(c SpanContext) {
	if t == nil {
		return
	}
	t.trcMu.Lock()
	t.trcParent = c
	t.trcMu.Unlock()
}

// traced reports whether traceSpan would record a span now.
func (t *Telemetry) traced() bool {
	t.trcMu.Lock()
	defer t.trcMu.Unlock()
	return t.tracer != nil && t.trcParent.Valid()
}

// traceSpan mirrors one completed hook measurement into the tracer as a
// child of the current parent. Without a tracer or a valid parent it is a
// no-op, so hooks stay free when tracing is off or the work is untraced.
func (t *Telemetry) traceSpan(name string, wallNS int64, attrs map[string]float64) {
	t.trcMu.Lock()
	tr, par := t.tracer, t.trcParent
	t.trcMu.Unlock()
	if tr == nil || !par.Valid() {
		return
	}
	tr.Record(par, name, tr.now()-wallNS, wallNS, attrs)
}

type chaosWindow struct {
	label string
	until float64
}

// Options parameterizes New.
type Options struct {
	// SpanRing is ignored: the span ring it sized is gone. The field stays
	// because the frozen benchmark/ module sets it (ROADMAP 7(a)).
	SpanRing int
	// AuditW receives the JSONL flight-recorder stream (nil = memory only).
	AuditW io.Writer
	// AuditMemory bounds retained in-memory audit records (0 = unbounded,
	// which in-process replay wants; daemons writing to a file set a cap).
	AuditMemory int
}

// New builds a Telemetry bundle.
func New(o Options) *Telemetry {
	return &Telemetry{
		Reg:    newRegistry(),
		Flight: newFlightRecorder(o.AuditW, o.AuditMemory),
	}
}

// ChaosActive registers a fault as active until the given simulated time;
// decision records list the labels of every window covering their instant.
// Instantaneous faults (kills, crashes) pass a small linger window so the
// decisions they disturb still carry the annotation.
func (t *Telemetry) ChaosActive(label string, until float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active = append(t.active, chaosWindow{label: label, until: until})
}

// ActiveChaos returns the labels of fault windows covering simulated time
// now, pruning expired ones.
func (t *Telemetry) ActiveChaos(now float64) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.active[:0]
	var out []string
	for _, w := range t.active {
		if w.until >= now {
			kept = append(kept, w)
			out = append(out, w.label)
		}
	}
	t.active = kept
	sort.Strings(out)
	return out
}

// Handler returns the observability HTTP mux: Prometheus text exposition at
// /metrics, expvar at /debug/vars, and the full pprof suite under
// /debug/pprof/ — the cAdvisor/Prometheus/pprof surface of the paper's
// deployment, for the control plane itself. The "graf" expvar shows the
// registry of the bundle whose Handler was built last: the one a process
// serves, not the last of its tenants' bundles.
func (t *Telemetry) Handler() http.Handler {
	publishExpvar(t)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, t.Reg.Expose())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts an HTTP server on addr — Handler's /debug endpoints, and at
// /metrics the page metrics renders: a view merged from several registries
// (a fleet's tenants, a router's shards) — and returns it once the listener
// is bound, so scrapes racing the return cannot miss; srv.Addr is the bound
// address. Shut it down with srv.Close or srv.Shutdown.
func (t *Telemetry) Serve(addr string, metrics func() string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/", t.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, metrics())
	})
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	go srv.Serve(ln) // returns when the caller closes srv
	return srv, nil
}

// current holds the most recently served Telemetry for the process-wide
// expvar publication: expvar names are global and re-publishing panics, so
// the "graf" var indirects through this pointer.
var (
	current    atomic.Pointer[Telemetry]
	expvarOnce sync.Once
)

func publishExpvar(t *Telemetry) {
	current.Store(t)
	expvarOnce.Do(func() {
		expvar.Publish("graf", expvar.Func(func() any {
			if cur := current.Load(); cur != nil {
				return cur.Reg.Snapshot()
			}
			return nil
		}))
	})
}
