// Command grafrouter is the multi-process fleet's control-plane head: it
// spawns (or attaches to) N grafd shard processes, installs the fleet spec
// on each over HTTP, places tenants with consistent hashing, and drives the
// global round clock. Shards are health-checked with heartbeat probes; every
// call carries retry/timeout/exponential-backoff with jitter and a per-shard
// circuit breaker, so one slow or dead shard never stalls the router loop.
//
// Robustness drills:
//
//	grafrouter -model m.graf -spawn 2 -fleet 8 -dur 120 -audit-dir a -ckpt c
//	grafrouter ... -kill-shard 0@12        # SIGKILL shard 0 at round 12:
//	                                       # respawn/reassign, replay, verify
//	grafrouter ... -migrate tenant-03@5:1  # drain → checkpoint → restore on
//	                                       # shard 1, verified byte-identical
//
// Crash-safe router & failover (-state-dir, DESIGN.md §3k):
//
//	grafrouter ... -state-dir s -router-addr :7171 \
//	  -migrate tenant-03@5:other -crash-after-drain   # primary: self-SIGKILL
//	                                                  # mid-migration
//	grafrouter ... -state-dir s -standby HOST:7171    # standby: probe, take
//	                                                  # over on sustained miss
//	grafrouter ... -state-dir s -resume               # warm restart in place
//
// A resumed or standby router bumps the fencing epoch, reconciles its
// checkpointed placement against every shard's reported residency, rolls a
// mid-flight migration forward or back, and continues the round sequence;
// the dead generation's writes are rejected by every shard
// (`fenced_writes_accepted=0` on the summary line).
//
// The run exits non-zero if any tenant lost a decision, failed verification,
// finished behind the round clock, or if any shard accepted a stale-epoch
// mutation. `lost_decisions=0` on the summary line is the machine-checked
// success marker.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"graf"
	"graf/internal/chaos"
	"graf/internal/obs"
	"graf/internal/overload"
	"graf/internal/rpc"
)

// routerOptions is the parsed command line: the run flags shared with grafd
// (rpc.Flags — artifact, tenants, durable state, per-tenant policy) plus the
// router's own placement, chaos and failover knobs.
type routerOptions struct {
	*rpc.Flags
	spec rpc.Spec // the validated policy

	spawn    int
	shards   string
	grafdBin string

	ckptEveryRounds int
	restartBudget   int
	killShard       string
	migrate         string
	netDrop         float64
	netDelayMS      float64
	roundBudgetMS   float64

	trace   string
	obsAddr string

	// Crash safety & failover (DESIGN.md §3k).
	stateDir        string
	resume          bool
	routerAddr      string
	standby         string
	standbyMisses   int
	standbyEveryMS  float64
	crashAfterDrain bool
	crashAtRound    int
}

// parseFlags declares grafrouter's flags on fs, parses args and validates.
func parseFlags(fs *flag.FlagSet, args []string) (*routerOptions, error) {
	o := &routerOptions{Flags: rpc.RegisterFlags(fs, 8)}
	fs.IntVar(&o.spawn, "spawn", 0, "spawn this many grafd -shard child processes")
	fs.StringVar(&o.shards, "shards", "", "attach to running shard processes at these comma-separated addresses (instead of -spawn)")
	fs.StringVar(&o.grafdBin, "grafd-bin", "./grafd", "grafd binary to spawn shards from (with -spawn)")
	fs.IntVar(&o.ckptEveryRounds, "ckpt-every-rounds", 0, "checkpoint every shard each N rounds (0 = only at shutdown)")
	fs.IntVar(&o.restartBudget, "restart-budget", 1, "respawns allowed per shard slot before falling back to reassignment (0 = reassign immediately)")
	fs.StringVar(&o.killShard, "kill-shard", "", "chaos: SIGKILL spawned shard <slot> at the start of round <round>, as slot@round (e.g. 0@12)")
	fs.StringVar(&o.migrate, "migrate", "", "planned migration tenant@round:slot (e.g. tenant-03@5:1)")
	fs.Float64Var(&o.netDrop, "net-drop", 0, "chaos: drop each control-plane request with this probability (seeded-deterministic)")
	fs.Float64Var(&o.netDelayMS, "net-delay-ms", 0, "chaos: add this latency to ~30% of control-plane requests")
	fs.Float64Var(&o.roundBudgetMS, "round-budget-ms", 0, "end-to-end wall budget per round; the remaining budget propagates to shards as Graf-Deadline-Ms and over-budget ticks are shed, not retried (0 = unbounded)")
	fs.StringVar(&o.trace, "trace", "", "enable control-plane tracing on router and every shard; write the merged Chrome trace-event JSON to this file")
	fs.StringVar(&o.obsAddr, "obs", "", "serve the router's metrics plus a federated fleet-wide /metrics view (every shard's registry relabeled with shard=addr) on this address")
	fs.StringVar(&o.stateDir, "state-dir", "", "durable router state directory: placement, round clock, migration records, and the fencing epoch are checkpointed here (\"\" = in-memory router, no crash safety)")
	fs.BoolVar(&o.resume, "resume", false, "warm-restore the router from -state-dir: bump the fencing epoch, reconcile placement against every shard's reported residency, and continue the round sequence")
	fs.StringVar(&o.routerAddr, "router-addr", "", "serve the router's own /v1/router/healthz on this address (the standby's probe target)")
	fs.StringVar(&o.standby, "standby", "", "run as a hot standby: probe the primary router's /v1/router/healthz at this host:port and take over (epoch bump + reconcile) after sustained failure")
	fs.IntVar(&o.standbyMisses, "standby-misses", 5, "consecutive failed primary probes that trigger the standby's takeover")
	fs.Float64Var(&o.standbyEveryMS, "standby-every-ms", 100, "primary probe interval (ms)")
	fs.BoolVar(&o.crashAfterDrain, "crash-after-drain", false, "drill: self-SIGKILL at the migrate-after-drain crash site — the migrated tenant is resident nowhere, only the durable migration record knows where it was headed")
	fs.IntVar(&o.crashAtRound, "crash-at-round", 0, "drill: self-SIGKILL at the start of this round (0 = never)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, o.validate()
}

// validate rejects contradictory flag combinations before any process is
// spawned. Policy (shape, rate, forecast, budget, brownout, ...) is checked
// by rpc.Spec.Validate, the same for every binary.
func (o *routerOptions) validate() error {
	if o.Model == "" {
		return fmt.Errorf("need -model <path> (every shard process loads the same artifact)")
	}
	var err error
	if o.spec, err = o.Spec(); err != nil {
		return err
	}
	o.spec.Trace = o.trace != ""
	if o.spawn > 0 && o.shards != "" {
		return fmt.Errorf("-spawn starts shard processes and -shards attaches to running ones: pick one")
	}
	takeover := o.resume || o.standby != ""
	if o.spawn <= 0 && o.shards == "" && !takeover {
		return fmt.Errorf("need -spawn N or -shards addr,addr")
	}
	if takeover {
		if o.stateDir == "" {
			return fmt.Errorf("-resume/-standby restore the router from its durable state: they need -state-dir")
		}
		if o.spawn > 0 {
			return fmt.Errorf("-resume/-standby attach to the previous generation's shards (recorded in -state-dir); they cannot -spawn a new fleet")
		}
	}
	if o.resume && o.standby != "" {
		return fmt.Errorf("-resume takes over immediately and -standby waits for the primary to die: pick one")
	}
	if o.crashAfterDrain && o.migrate == "" {
		return fmt.Errorf("-crash-after-drain fires inside a migration's drain window: it needs -migrate")
	}
	if (o.crashAfterDrain || o.crashAtRound > 0) && o.stateDir == "" {
		return fmt.Errorf("a scripted router crash without -state-dir leaves nothing to resume from")
	}
	if o.standby != "" && o.standbyMisses <= 0 {
		return fmt.Errorf("-standby-misses %d must be positive", o.standbyMisses)
	}
	if o.killShard != "" && o.spawn <= 0 {
		return fmt.Errorf("-kill-shard sends SIGKILL to a spawned shard; it needs -spawn (the router does not kill processes it did not start)")
	}
	if o.netDrop < 0 || o.netDrop >= 1 {
		return fmt.Errorf("-net-drop %v must be in [0,1)", o.netDrop)
	}
	if o.roundBudgetMS < 0 {
		return fmt.Errorf("-round-budget-ms %v must be non-negative (0 disables the round deadline)", o.roundBudgetMS)
	}
	return nil
}

// shardProc is one spawned grafd -shard child.
type shardProc struct {
	slot int
	addr string
	cmd  *exec.Cmd
	done chan struct{} // closed when Wait returns
}

// spawnShard starts one grafd shard process and parses its bound address
// from the contract line `shard listening on HOST:PORT` (always the first
// stdout line). Remaining output is streamed through with a slot prefix.
func spawnShard(o *routerOptions, slot int) (*shardProc, error) {
	args := []string{"-model", o.Model, "-shard", "127.0.0.1:0"}
	if o.Ckpt != "" {
		args = append(args, "-ckpt", o.Ckpt)
	}
	if o.AuditDir != "" {
		args = append(args, "-audit-dir", o.AuditDir)
	}
	cmd := exec.Command(o.grafdBin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn shard %d (%s): %w", slot, o.grafdBin, err)
	}
	p := &shardProc{slot: slot, cmd: cmd, done: make(chan struct{})}

	// If the address line never arrives the child is broken; don't hang the
	// router on it.
	giveUp := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "shard listening on "); ok {
			p.addr = strings.TrimSpace(addr)
			break
		}
		fmt.Printf("[shard %d] %s\n", slot, line)
	}
	giveUp.Stop()
	if p.addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("shard %d exited before reporting its address", slot)
	}
	go func() {
		for sc.Scan() {
			fmt.Printf("[shard %d] %s\n", slot, sc.Text())
		}
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// kill delivers SIGKILL — the chaos path: no drain, no flush, the process is
// simply gone. Recovery must work from the durable audit logs alone.
func (p *shardProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// terminate asks for a graceful drain and waits bounded time for it.
func (p *shardProc) terminate() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// scrapeShards fetches every live shard's Prometheus exposition from its
// control-plane /metrics endpoint. Unreachable shards are skipped — the
// caller compares the haul against the live count.
func scrapeShards(r *rpc.Router) []obs.Exposition {
	cl := &http.Client{Timeout: 2 * time.Second}
	var out []obs.Exposition
	for _, si := range r.Shards() {
		if !si.Alive {
			continue
		}
		resp, err := cl.Get("http://" + si.Addr + "/metrics")
		if err != nil {
			continue
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		out = append(out, obs.Exposition{Shard: si.Addr, Text: string(b)})
	}
	return out
}

// federate renders the fleet-wide metrics view: the router's own registry
// merged with a live scrape of every shard, shard-labeled.
func federate(r *rpc.Router, tel *obs.Telemetry) string {
	return obs.MergeExpositions(append(
		[]obs.Exposition{{Shard: "router", Text: tel.Reg.Expose()}}, scrapeShards(r)...))
}

// stitchedTrace finds the best single trace that crosses at least two
// processes and contains every stage of the control-plane path: the router's
// round root, the shard-side tick handler, a tenant tick, a controller
// decision stage, and a coalesced inference batch. Returns its trace ID,
// span count, and process count.
func stitchedTrace(spans []obs.TraceSpan) (tid uint64, n, procs int, ok bool) {
	type agg struct {
		names map[string]bool
		procs map[string]bool
		n     int
	}
	byTrace := map[uint64]*agg{}
	for _, s := range spans {
		a := byTrace[s.Trace]
		if a == nil {
			a = &agg{names: map[string]bool{}, procs: map[string]bool{}}
			byTrace[s.Trace] = a
		}
		name := s.Name
		if strings.HasPrefix(name, "decision/") {
			name = "decision"
		}
		a.names[name] = true
		a.procs[s.Proc] = true
		a.n++
	}
	var best *agg
	for id, a := range byTrace {
		full := a.names["router/round"] && a.names["shard/tick"] &&
			a.names["tenant/tick"] && a.names["decision"] &&
			a.names["inference/batch"] && len(a.procs) >= 2
		if full && (best == nil || a.n > best.n) {
			tid, best = id, a
		}
	}
	if best == nil {
		return 0, 0, 0, false
	}
	return tid, best.n, len(best.procs), true
}

// waitForPrimaryFailure blocks until the primary's /v1/router/healthz has
// failed `misses` consecutive probes after having answered at least once,
// and returns the instant of the last successful probe — where the takeover
// blackout clock starts. If the primary never answers within a 60s grace
// (it was already dead when the standby started), leadership is claimed
// immediately.
func waitForPrimaryFailure(primary string, every time.Duration, misses int) time.Time {
	timeout := 2 * every
	if timeout < 100*time.Millisecond {
		timeout = 100 * time.Millisecond
	}
	cl := &http.Client{Timeout: timeout}
	url := "http://" + primary + "/v1/router/healthz"
	grace := time.Now().Add(60 * time.Second)
	lastOK := time.Time{}
	sawHealthy := false
	consecutive := 0
	for {
		resp, err := cl.Get(url)
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		switch {
		case ok:
			sawHealthy, consecutive = true, 0
			lastOK = time.Now()
		case sawHealthy:
			consecutive++
			if consecutive >= misses {
				return lastOK
			}
		case time.Now().After(grace):
			fmt.Fprintln(os.Stderr, "standby: primary never answered within the grace window — claiming leadership")
			return time.Now()
		}
		time.Sleep(every)
	}
}

// parseAt splits "x@round" clauses.
func parseAt(s string) (string, int, error) {
	head, tail, ok := strings.Cut(s, "@")
	if !ok {
		return "", 0, fmt.Errorf("%q: want <target>@<round>", s)
	}
	round, err := strconv.Atoi(tail)
	if err != nil || round <= 0 {
		return "", 0, fmt.Errorf("%q: round %q must be a positive integer", s, tail)
	}
	return head, round, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "grafrouter: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(o))
}

func run(o *routerOptions) int {
	tr, err := graf.LoadModel(o.Model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "load model: %v\n", err)
		return 1
	}
	// The policy travels in the spec, so every shard — including a respawned
	// one — and the single-process reference run rebuild identical tenants.
	spec := o.spec
	// Fail fast if the artifact cannot realize the spec (wrong service
	// count) before any shard process is spawned. The shards load the same
	// file themselves; the router never keeps the model.
	if _, err := spec.FleetConfig(tr.Bundle(), ""); err != nil {
		fmt.Fprintf(os.Stderr, "grafrouter: %v\n", err)
		return 2
	}
	rounds := o.Rounds()

	// Assemble the shard set: spawned children or external addresses.
	var addrs []string
	var procs []*shardProc // index = slot; nil for external shards
	var procMu sync.Mutex
	if o.spawn > 0 {
		for slot := 0; slot < o.spawn; slot++ {
			p, err := spawnShard(o, slot)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				for _, q := range procs {
					q.kill()
				}
				return 1
			}
			fmt.Printf("router: shard %d up at %s (pid %d)\n", slot, p.addr, p.cmd.Process.Pid)
			procs = append(procs, p)
			addrs = append(addrs, p.addr)
		}
	} else if o.shards != "" {
		addrs = strings.Split(o.shards, ",")
		procs = make([]*shardProc, len(addrs))
	}
	// -resume/-standby: addrs stays empty — the shard set is recorded in the
	// durable state and rebuilt by ResumeRouter.
	takeover := o.resume || o.standby != ""

	// Parse the chaos/migration schedules now that slots exist. Slot "max"
	// resolves at kill time to the spawned shard owning the most tenants —
	// the drill then always has something to recover, whatever the ring
	// happened to decide.
	killSlot, killRound := -1, -1
	const killSlotMax = -2
	if o.killShard != "" {
		slotS, round, err := parseAt(o.killShard)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grafrouter: -kill-shard %v\n", err)
			return 2
		}
		if slotS == "max" {
			killSlot = killSlotMax
		} else {
			slot, err := strconv.Atoi(slotS)
			if err != nil || slot < 0 || slot >= len(addrs) {
				fmt.Fprintf(os.Stderr, "grafrouter: -kill-shard slot %q out of range (0..%d, or \"max\")\n", slotS, len(addrs)-1)
				return 2
			}
			killSlot = slot
		}
		killRound = round
	}
	migTenant, migRound, migSlot := "", -1, -1
	if o.migrate != "" {
		// Format: tenant@round:slot — move `tenant` at the start of `round`
		// onto shard slot `slot`.
		tenant, tail, ok := strings.Cut(o.migrate, "@")
		roundS, slotS, ok2 := strings.Cut(tail, ":")
		round, errR := strconv.Atoi(roundS)
		if !ok || !ok2 || errR != nil || round <= 0 {
			fmt.Fprintf(os.Stderr, "grafrouter: -migrate %q: want tenant@round:slot (e.g. tenant-03@5:1, or :other for any non-owning shard)\n", o.migrate)
			return 2
		}
		if slotS == "other" {
			// Resolved at migration time to a live shard that does not
			// currently own the tenant — the drill is never a no-op.
			migSlot = -2
		} else {
			slot, errS := strconv.Atoi(slotS)
			// A resumed/standby router learns its shard set from the durable
			// state, so the upper bound is checked at migration time instead.
			if errS != nil || slot < 0 || (!takeover && slot >= len(addrs)) {
				fmt.Fprintf(os.Stderr, "grafrouter: -migrate slot %q out of range (0..%d, or \"other\")\n", slotS, len(addrs)-1)
				return 2
			}
			migSlot = slot
		}
		migTenant, migRound = tenant, round
	}

	// The chaos schedule: optional wire faults keyed by the router's round
	// clock and a fixed seed — replayable. (The scripted SIGKILL is driver
	// work, performed in the round loop below.)
	var events []chaos.NetEvent
	if o.netDrop > 0 {
		events = append(events, chaos.Drop(1, rounds, "", o.netDrop))
	}
	if o.netDelayMS > 0 {
		events = append(events, chaos.Delay(1, rounds, "", 0.3, o.netDelayMS))
	}
	var fault rpc.FaultInjector
	if len(events) > 0 {
		fault = chaos.NewNetInjector(chaos.NetScenario{Name: "grafrouter", Seed: spec.Seed, Events: events})
	}

	// The router's own telemetry (round/migration/recovery metrics plus the
	// client's per-shard RPC histograms) lives in one registry; -obs serves
	// it federated with every shard's scraped registry. -trace adds a tracer
	// whose round-root spans propagate to the shards as traceparent headers.
	tel := obs.New(obs.Options{})
	var tracer *obs.Tracer
	if o.trace != "" {
		tracer = obs.NewTracer(obs.TracerOptions{
			Seed: obs.DeriveTraceSeed(spec.Seed, "router"), Proc: "router",
		})
	}
	cfg := rpc.RouterConfig{
		Spec:                  spec,
		Client:                rpc.ClientConfig{Seed: spec.Seed},
		RestartBudget:         o.restartBudget,
		CheckpointEveryRounds: o.ckptEveryRounds,
		Fault:                 fault,
		Obs:                   obs.NewRouterObs(tel),
		RPCObs:                obs.NewRPCObs(tel),
		Tracer:                tracer,
		Logf: func(format string, args ...any) {
			fmt.Printf("router: "+format+"\n", args...)
		},
	}
	if o.roundBudgetMS > 0 {
		cfg.RoundBudget = time.Duration(o.roundBudgetMS * float64(time.Millisecond))
	}
	cfg.StateDir = o.stateDir
	if o.crashAfterDrain {
		// The drill's worst-case crash: SIGKILL ourselves inside the
		// migration window, after the drain, before the restore. No rollback,
		// no cleanup — exactly what the failpoint seam promises. The standby
		// (or a -resume restart) must roll the move forward from the durable
		// migration record.
		cfg.Failpoint = func(site string) error {
			if site == "migrate-after-drain" {
				fmt.Printf("router: CRASH — self-SIGKILL at %s\n", site)
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
			return nil
		}
	}
	if o.restartBudget == 0 {
		cfg.RestartBudget = -1 // reassign immediately, never respawn
	}
	if o.spawn > 0 {
		cfg.Respawn = func(slot int) (string, error) {
			p, err := spawnShard(o, slot)
			if err != nil {
				return "", err
			}
			procMu.Lock()
			procs[slot] = p
			procMu.Unlock()
			fmt.Printf("router: shard %d respawned at %s (pid %d)\n", slot, p.addr, p.cmd.Process.Pid)
			return p.addr, nil
		}
	}
	cfg.Tenants = o.TenantIDs()

	var r *rpc.Router
	takeoverBlackoutMS := -1.0
	if takeover {
		deadAt := time.Now()
		if o.standby != "" {
			every := time.Duration(o.standbyEveryMS * float64(time.Millisecond))
			if every < 10*time.Millisecond {
				every = 10 * time.Millisecond
			}
			fmt.Printf("standby: probing primary %s every %s (%d misses → takeover)\n",
				o.standby, every, o.standbyMisses)
			deadAt = waitForPrimaryFailure(o.standby, every, o.standbyMisses)
			fmt.Println("standby: primary declared dead — taking over")
		}
		rr, rep, err := rpc.ResumeRouter(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		r = rr
		takeoverBlackoutMS = float64(time.Since(deadAt).Nanoseconds()) / 1e6
		_ = rep // already logged by the reconcile pass through cfg.Logf
		fmt.Printf("router: resumed epoch=%d at round %d/%d, takeover_blackout_ms=%.1f\n",
			r.Epoch(), r.Round(), rounds, takeoverBlackoutMS)
	} else {
		rr, err := rpc.NewRouter(cfg, addrs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		r = rr
	}
	fmt.Printf("router: %d tenants, %d shards, shape=%s, %d rounds (%ds horizon)\n",
		o.Tenants, len(r.Shards()), spec.Shape, rounds, spec.DurS)
	if o.routerAddr != "" {
		ln, err := net.Listen("tcp", o.routerAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "router-addr listen: %v\n", err)
			return 1
		}
		rmux := http.NewServeMux()
		rmux.HandleFunc("/v1/router/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(rpc.RouterHealth{
				OK: true, PID: os.Getpid(), Epoch: r.Epoch(), Round: r.Round(), Fenced: r.Fenced(),
			})
		})
		rsrv := &http.Server{Handler: rmux}
		go rsrv.Serve(ln)
		defer rsrv.Close()
		fmt.Printf("router: healthz on %s\n", ln.Addr())
	}
	if o.obsAddr != "" {
		ln, err := net.Listen("tcp", o.obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs listen: %v\n", err)
			return 1
		}
		omux := http.NewServeMux()
		omux.Handle("/debug/", tel.Handler())
		omux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			io.WriteString(w, federate(r, tel))
		})
		srv := &http.Server{Handler: omux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("router: obs listening on %s (federated /metrics)\n", ln.Addr())
	}
	if !takeover {
		if err := r.Bootstrap(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	start := time.Now()
	exit := 0
	prevRung := 0
	for round := r.Round() + 1; round <= rounds; round++ {
		if o.crashAtRound == round {
			fmt.Printf("router: CRASH — self-SIGKILL at round %d\n", round)
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
		if killRound == round {
			slot := killSlot
			if slot == killSlotMax {
				owners := map[string]int{}
				for _, id := range cfg.Tenants {
					owners[r.Owner(id)]++
				}
				best := -1
				for _, si := range r.Shards() {
					if si.Alive && procs[si.Slot] != nil && (best < 0 || owners[si.Addr] > owners[r.Shards()[best].Addr]) {
						best = si.Slot
					}
				}
				slot = best
			}
			procMu.Lock()
			var p *shardProc
			if slot >= 0 {
				p = procs[slot]
			}
			procMu.Unlock()
			if p != nil {
				fmt.Printf("router: CHAOS — SIGKILL shard %d (pid %d) at round %d\n", slot, p.cmd.Process.Pid, round)
				p.kill()
			}
		}
		if migRound == round && migTenant != "" {
			slot := migSlot
			if slot == -2 {
				cur := r.Owner(migTenant)
				for _, si := range r.Shards() {
					if si.Alive && si.Addr != cur {
						slot = si.Slot
						break
					}
				}
			}
			if slot >= len(r.Shards()) {
				fmt.Fprintf(os.Stderr, "migrate: slot %d out of range (%d shards in the restored ring)\n", slot, len(r.Shards()))
				exit = 1
			} else if slot < 0 {
				fmt.Fprintf(os.Stderr, "migrate: no live shard other than %s for %s\n", r.Owner(migTenant), migTenant)
				exit = 1
			} else if d, err := r.Migrate(migTenant, r.Shards()[slot].Addr); err != nil {
				fmt.Fprintf(os.Stderr, "migrate: %v\n", err)
				exit = 1
			} else {
				fmt.Printf("router: migrated %s to shard %d in %.1fms\n", migTenant, slot, float64(d.Nanoseconds())/1e6)
			}
		}
		if err := r.RunRound(); err != nil {
			fmt.Fprintf(os.Stderr, "round %d: %v\n", round, err)
			exit = 1
			break
		}
		// Degradation visibility: announce when any tenant enters the
		// brownout ladder and when the whole fleet has recovered, so an
		// operator tailing the log sees pressure without scraping metrics.
		rung := 0
		for _, ts := range r.TenantStates() {
			if ts.Brownout > rung {
				rung = ts.Brownout
			}
		}
		if rung > 0 && prevRung == 0 {
			fmt.Printf("router: brownout enter step=%s round=%d\n", overload.Step(rung), round)
		} else if rung == 0 && prevRung > 0 {
			fmt.Printf("router: brownout exit round=%d\n", round)
		} else if rung != prevRung {
			fmt.Printf("router: brownout step=%s round=%d\n", overload.Step(rung), round)
		}
		prevRung = rung
	}
	wall := time.Since(start).Seconds()

	if o.Ckpt != "" {
		if n, err := r.CheckpointAll(); err != nil {
			fmt.Fprintf(os.Stderr, "final checkpoint: %v\n", err)
		} else {
			fmt.Printf("router: checkpointed %d tenant namespace(s)\n", n)
		}
	}

	// Per-tenant verdicts: every live tenant must have reached the round
	// clock with its audit fingerprint intact.
	ticksDone := 0
	behind := 0
	for _, ts := range r.TenantStates() {
		ticksDone += ts.Ticks
		status := "ok"
		switch {
		case ts.Degraded:
			status = "DEGRADED (contained)"
		case ts.Ticks != r.Round():
			status = fmt.Sprintf("BEHIND (%d/%d ticks)", ts.Ticks, r.Round())
			behind++
		}
		if ts.Brownout > 0 {
			status += fmt.Sprintf(" brownout=%s", overload.Step(ts.Brownout))
		}
		fmt.Printf("  %-12s on %-21s ticks %3d  p99 %6.1f ms  violation %5.1fs  audit %6dB fnv %016x  %s\n",
			ts.ID, r.Owner(ts.ID), ts.Ticks, ts.P99*1000, ts.ViolS, ts.AuditLen, ts.AuditFNV, status)
	}

	st := r.Stats()
	if st.LostDecisions > 0 || behind > 0 {
		exit = 1
	}
	// Aggregate the shards' overload counters from their health endpoints:
	// shed work is accounted loudly, and expired_executed must be zero —
	// a shard that ran work past its propagated deadline broke the contract.
	var shardShed, expiredShed, expiredExecuted, fencedAccepted, fencedRejected int64
	for _, si := range r.Shards() {
		if !si.Alive {
			continue
		}
		if h, err := r.Client().Health(si.Addr); err == nil {
			shardShed += h.Shed
			expiredShed += h.ExpiredShed
			expiredExecuted += h.ExpiredExecuted
			fencedAccepted += h.FencedAccepted
			fencedRejected += h.FencedRejected
		}
	}
	if expiredExecuted > 0 {
		fmt.Fprintf(os.Stderr, "overload: %d requests EXECUTED past their propagated deadline\n", expiredExecuted)
		exit = 1
	}
	if fencedAccepted > 0 {
		fmt.Fprintf(os.Stderr, "fencing: %d stale-epoch mutations EXECUTED on a shard\n", fencedAccepted)
		exit = 1
	}
	if r.Fenced() {
		fmt.Fprintln(os.Stderr, "fencing: this router generation was FENCED (a newer epoch owns the fleet)")
		exit = 1
	}
	fmt.Printf("router done: rounds=%d ticks=%d wall=%.1fs ticks_per_s=%.1f lost_decisions=%d migrations=%d respawns=%d reassignments=%d verified_restores=%d snapshot_verified=%d replayed_ticks=%d recovery_blackout_ms=%.1f shed_ticks=%d partial_rounds=%d shard_shed=%d expired_shed=%d expired_executed=%d epoch=%d persist_errors=%d fenced_writes_accepted=%d fenced_writes_rejected=%d\n",
		st.Rounds, ticksDone, wall, float64(ticksDone)/wall,
		st.LostDecisions, st.Migrations, st.Respawns, st.Reassignments,
		st.VerifiedRestores, st.SnapshotVerified, st.ReplayedTicks, st.RecoveryBlackoutMS,
		st.ShedTicks, st.PartialRounds, shardShed, expiredShed, expiredExecuted,
		r.Epoch(), st.PersistErrors, fencedAccepted, fencedRejected)
	if takeoverBlackoutMS >= 0 {
		fmt.Printf("takeover_blackout_ms=%.1f\n", takeoverBlackoutMS)
	}
	for i, ms := range st.MigrationBlackouts {
		fmt.Printf("migration_blackout_ms=%.2f (migration %d)\n", ms, i)
	}

	// Federation check: scrape every live shard's /metrics (served on its
	// control-plane mux) and merge with the router's own registry, each
	// sample relabeled with shard=addr. Must happen before the drain below
	// kills the endpoints.
	if o.obsAddr != "" {
		shardExpos := scrapeShards(r)
		merged := obs.MergeExpositions(append(
			[]obs.Exposition{{Shard: "router", Text: tel.Reg.Expose()}}, shardExpos...))
		alive := 0
		for _, si := range r.Shards() {
			if si.Alive {
				alive++
			}
		}
		if len(shardExpos) == alive && alive > 0 {
			fmt.Printf("federation OK: %d shards merged, %d metric families\n",
				len(shardExpos), strings.Count(merged, "# TYPE "))
		} else {
			fmt.Fprintf(os.Stderr, "federation INCOMPLETE: scraped %d of %d live shards\n", len(shardExpos), alive)
			exit = 1
		}
	}

	// Trace assembly: pull every live shard's span buffer over /v1/traces,
	// merge with the router's own spans, verify that one trace stitches the
	// whole control-plane path across processes, and export Chrome JSON.
	if o.trace != "" {
		spans := tracer.Snapshot()
		procs := 1
		for _, si := range r.Shards() {
			if !si.Alive {
				continue
			}
			resp, err := r.Client().Traces(si.Addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "traces from %s: %v\n", si.Addr, err)
				exit = 1
				continue
			}
			spans = append(spans, resp.Spans...)
			procs++
		}
		if tid, n, np, ok := stitchedTrace(spans); ok {
			fmt.Printf("trace stitched: trace %016x crosses %d processes, %d spans (router/round → shard/tick → tenant/tick → decision → inference/batch)\n",
				tid, np, n)
		} else {
			fmt.Fprintf(os.Stderr, "trace NOT stitched: no single trace covers router round → shard tick → tenant stages → batched inference\n")
			exit = 1
		}
		f, err := os.Create(o.trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
			exit = 1
		} else {
			if err := obs.ChromeTrace(f, spans); err != nil {
				fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
				exit = 1
			}
			f.Close()
			fmt.Printf("router: %d spans from %d processes written to %s\n", len(spans), procs, o.trace)
		}
	}

	// Drain spawned shards: SIGTERM flushes + checkpoints each one.
	procMu.Lock()
	for _, p := range procs {
		if p != nil {
			select {
			case <-p.done: // already dead (chaos)
			default:
				p.terminate()
			}
		}
	}
	procMu.Unlock()
	if o.AuditDir != "" {
		fmt.Printf("audit logs written to %s\n", o.AuditDir)
	}
	return exit
}
