// Package app models microservice applications: the service graph, the
// per-API call trees (sequential stages of parallel calls), and each
// service's CPU-work parameters. These are the static inputs the simulator
// executes and the GNN's graph structure is derived from.
//
// Builders are provided for the four applications the paper uses: Online
// Boutique (Fig 4), Social Network (Fig 10), Robot Shop and Bookinfo
// (Fig 5). Topologies are copied from the paper's figures; CPU-work
// parameters are chosen so the per-service latency curves have the shapes of
// Fig 6 (monotone decreasing, convex, floor at the service time).
package app

import (
	"fmt"
	"sort"
)

// Service describes one microservice's resource/latency characteristics.
type Service struct {
	Name string

	// WorkMS is the mean CPU work per request, expressed as milliseconds
	// of execution on a full 1000-millicore CPU. At per-instance quota c
	// millicores the mean service time is WorkMS*1000/c ms.
	WorkMS float64

	// CV is the coefficient of variation of the (lognormal) service-time
	// distribution. Larger CV → heavier p99 tails.
	CV float64

	// BaseMS is a constant non-CPU latency component (I/O, network) added
	// to every invocation, independent of quota. It is the floor under the
	// latency curve: "latency for each microservice has a lower bound due
	// to the required minimal CPU cycles" (§3.7).
	BaseMS float64
}

// Call is one node in an API's call tree: an invocation of a service that,
// after its own CPU work, executes its stages in order, with the calls
// inside one stage issued in parallel. Count > 1 repeats the invocation
// sequentially (the trace multiplicity the Workload Analyzer must learn).
type Call struct {
	Service string
	Count   int // sequential repetitions; 0 is treated as 1
	Stages  [][]*Call
}

// Times returns Count normalized to at least 1.
func (c *Call) Times() int {
	if c.Count < 1 {
		return 1
	}
	return c.Count
}

// API is one request type exposed by the application's frontend.
type API struct {
	Name string
	// Mix is this API's share in the application's default multi-API
	// workload (shares need not be normalized; callers normalize).
	Mix  float64
	Root *Call
}

// App is a complete application definition.
type App struct {
	Name     string
	Services []Service
	APIs     []API

	index map[string]int
}

// New validates and returns an App. It panics on malformed definitions
// (duplicate/unknown service names, empty APIs): these are programmer errors
// in static app definitions, not runtime conditions.
func New(name string, services []Service, apis []API) *App {
	a := &App{Name: name, Services: services, APIs: apis, index: map[string]int{}}
	for i, s := range services {
		if _, dup := a.index[s.Name]; dup {
			panic(fmt.Sprintf("app %s: duplicate service %q", name, s.Name))
		}
		a.index[s.Name] = i
	}
	if len(apis) == 0 {
		panic(fmt.Sprintf("app %s: no APIs", name))
	}
	for _, api := range apis {
		a.walk(api.Root, func(c *Call) {
			if _, ok := a.index[c.Service]; !ok {
				panic(fmt.Sprintf("app %s: API %s calls unknown service %q", name, api.Name, c.Service))
			}
		})
	}
	return a
}

func (a *App) walk(c *Call, fn func(*Call)) {
	fn(c)
	for _, stage := range c.Stages {
		for _, child := range stage {
			a.walk(child, fn)
		}
	}
}

// ServiceIndex returns the index of the named service, or -1.
func (a *App) ServiceIndex(name string) int {
	if i, ok := a.index[name]; ok {
		return i
	}
	return -1
}

// ServiceNames returns the service names in index order.
func (a *App) ServiceNames() []string {
	out := make([]string, len(a.Services))
	for i, s := range a.Services {
		out[i] = s.Name
	}
	return out
}

// API returns the named API, or nil.
func (a *App) API(name string) *API {
	for i := range a.APIs {
		if a.APIs[i].Name == name {
			return &a.APIs[i]
		}
	}
	return nil
}

// Visits returns how many times each service is invoked by one request of
// api: the ground-truth workload-distribution the Workload Analyzer
// estimates from traces (§3.3).
func (a *App) Visits(api string) map[string]float64 {
	ap := a.API(api)
	if ap == nil {
		return nil
	}
	out := make(map[string]float64)
	var rec func(c *Call, mult float64)
	rec = func(c *Call, mult float64) {
		m := mult * float64(c.Times())
		out[c.Service] += m
		for _, stage := range c.Stages {
			for _, child := range stage {
				rec(child, m)
			}
		}
	}
	rec(ap.Root, 1)
	return out
}

// PerServiceRate converts a per-API frontend workload (requests/s keyed by
// API name) into the per-service arrival rate each microservice experiences.
// Rates are summed over the APIs in declaration order, never map order, so
// equal workloads give bit-equal floats; a key naming no API adds nothing.
func (a *App) PerServiceRate(apiRate map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(a.Services))
	for _, api := range a.APIs {
		if rate, ok := apiRate[api.Name]; ok {
			for svc, visits := range a.Visits(api.Name) {
				out[svc] += rate * visits
			}
		}
	}
	return out
}

// MixRates splits a total frontend rate (requests/s) across APIs according
// to their Mix shares.
func (a *App) MixRates(total float64) map[string]float64 {
	sum := 0.0
	for _, api := range a.APIs {
		sum += api.Mix
	}
	out := make(map[string]float64, len(a.APIs))
	for _, api := range a.APIs {
		out[api.Name] = total * api.Mix / sum
	}
	return out
}

// Edge is a directed caller→callee pair.
type Edge struct{ From, To string }

// Edges returns the union of caller→callee edges across all APIs, sorted.
// This is the adjacency the MPNN propagates messages along.
func (a *App) Edges() []Edge {
	set := map[Edge]bool{}
	for _, api := range a.APIs {
		var rec func(c *Call)
		rec = func(c *Call) {
			for _, stage := range c.Stages {
				for _, child := range stage {
					set[Edge{c.Service, child.Service}] = true
					rec(child)
				}
			}
		}
		rec(api.Root)
	}
	out := make([]Edge, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Parents returns, for each service index, the indices of its callers
// (the N(i) of Eq. 3).
func (a *App) Parents() [][]int {
	parents := make([][]int, len(a.Services))
	for _, e := range a.Edges() {
		p, c := a.index[e.From], a.index[e.To]
		parents[c] = append(parents[c], p)
	}
	return parents
}

// seq builds a call with purely sequential single-call stages.
func seq(service string, children ...*Call) *Call {
	c := &Call{Service: service}
	for _, ch := range children {
		c.Stages = append(c.Stages, []*Call{ch})
	}
	return c
}

// par builds a call whose children all run in one parallel stage.
func par(service string, children ...*Call) *Call {
	c := &Call{Service: service}
	if len(children) > 0 {
		c.Stages = append(c.Stages, children)
	}
	return c
}

// leaf builds a call with no children.
func leaf(service string) *Call { return &Call{Service: service} }
