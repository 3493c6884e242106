package timing

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rctree"
	"repro/internal/trace"
)

// Interval is a closed time interval [Min, Max] bracketing an arrival.
type Interval struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Contains reports whether t lies in the interval (inclusive).
func (iv Interval) Contains(t float64) bool { return iv.Min <= t && t <= iv.Max }

// add shifts the interval by a scalar delay.
func (iv Interval) add(d float64) Interval { return Interval{iv.Min + d, iv.Max + d} }

// plus adds two intervals end to end.
func (iv Interval) plus(o Interval) Interval { return Interval{iv.Min + o.Min, iv.Max + o.Max} }

// hull widens the interval to cover o (min of mins, max of maxes).
func (iv Interval) hull(o Interval) Interval {
	return Interval{math.Min(iv.Min, o.Min), math.Max(iv.Max, o.Max)}
}

// Options configures an analysis. The zero value uses threshold 0.5, no
// default required time, 5 critical paths, and work-stealing parallel
// propagation across GOMAXPROCS workers.
type Options struct {
	// Threshold is the receiving gates' switching threshold as a fraction of
	// the step (0 means 0.5).
	Threshold float64
	// Required is the default required arrival time applied to endpoints
	// without an explicit .require card; <= 0 leaves them unconstrained.
	Required float64
	// K is how many critical paths to backtrack (0 means 5; negative means
	// none).
	K int
	// Sequential computes each net one at a time on the caller's goroutine
	// (the same as Workers: 1).
	Sequential bool
	// Workers caps propagation parallelism; 0 means GOMAXPROCS.
	Workers int
	// Obs receives engine-phase telemetry (graph/arena build spans,
	// per-schedule propagation timings, dirty-cone sweep sizes). Nil — the
	// default — disables it at the cost of one pointer test per phase.
	Obs *obs.Registry
}

// faninEdge is one resolved stage edge entering a net.
type faninEdge struct {
	driver int     // index of the driving net
	output string  // designated output of the driver the gate taps
	delay  float64 // gate intrinsic delay
}

// fanoutEdge is one resolved stage edge leaving a net; output names the
// designated output the downstream gate taps, so incremental propagation can
// skip fanouts whose tapped output did not move.
type fanoutEdge struct {
	to     int
	output string
}

// gnode is one net in the timing graph.
type gnode struct {
	name   string
	tree   *rctree.Tree
	fanin  []faninEdge
	fanout []fanoutEdge // driven nets (one entry per stage edge)
	level  int
	// drives marks which outputs feed at least one stage edge; outputs not
	// in the set are timing endpoints.
	drives map[string]bool
}

// Graph is a levelized timing DAG built from a design. Build once, analyze
// many times (e.g. under different thresholds); Graphs are immutable after
// NewGraph and safe for concurrent Analyze calls.
type Graph struct {
	design *netlist.Design
	nodes  []gnode
	index  map[string]int // net name -> node index
	levels [][]int        // net indices per level, each level sorted ascending
	// The flat arena core is built lazily on first use and shared by every
	// analysis and session mounted on this graph (it is immutable).
	arenaOnce sync.Once
	arenaVal  *designArena
	arenaErr  error
}

// arena returns the graph's flat compute core, building it on first use.
func (g *Graph) arena() (*designArena, error) {
	return g.arenaWith(context.Background(), nil)
}

// arenaWith is arena with telemetry: the build (which happens at most once
// per graph) records a timing_arena_build_seconds histogram on reg and a
// timing_arena_build trace span under ctx when it is the call that actually
// constructs the core.
func (g *Graph) arenaWith(ctx context.Context, reg *obs.Registry) (*designArena, error) {
	g.arenaOnce.Do(func() {
		_, op := trace.StartOp(ctx, reg, "timing_arena_build")
		g.arenaVal, g.arenaErr = newDesignArena(g)
		op.SetError(g.arenaErr)
		op.End()
	})
	return g.arenaVal, g.arenaErr
}

// NewGraph resolves a design into a levelized DAG. Stage edges must form no
// cycle: every net's level is one past its deepest driver.
func NewGraph(d *netlist.Design) (*Graph, error) {
	if d == nil || len(d.Nets) == 0 {
		return nil, fmt.Errorf("timing: design has no nets")
	}
	index := make(map[string]int, len(d.Nets))
	g := &Graph{design: d, nodes: make([]gnode, len(d.Nets)), index: index}
	for i, n := range d.Nets {
		index[n.Name] = i
		g.nodes[i] = gnode{name: n.Name, tree: n.Tree, drives: map[string]bool{}}
	}
	for _, s := range d.Stages {
		from, ok := index[s.FromNet]
		if !ok {
			return nil, fmt.Errorf("timing: stage references unknown net %q", s.FromNet)
		}
		to, ok := index[s.ToNet]
		if !ok {
			return nil, fmt.Errorf("timing: stage references unknown net %q", s.ToNet)
		}
		// ParseDesign validates this too, but designs assembled in code reach
		// here directly, and a dangling output name would otherwise read as a
		// silent {0,0} arrival — an unsound report rather than an error.
		if !isDesignatedOutput(g.nodes[from].tree, s.FromOutput) {
			return nil, fmt.Errorf("timing: stage taps %q, which is not a designated output of net %q", s.FromOutput, s.FromNet)
		}
		g.nodes[to].fanin = append(g.nodes[to].fanin, faninEdge{driver: from, output: s.FromOutput, delay: s.Delay})
		g.nodes[from].fanout = append(g.nodes[from].fanout, fanoutEdge{to: to, output: s.FromOutput})
		g.nodes[from].drives[s.FromOutput] = true
	}
	// Kahn levelization: a net is placeable once every fanin edge has been
	// consumed; its level is one past the deepest driver.
	remaining := make([]int, len(g.nodes))
	var queue []int
	for i := range g.nodes {
		remaining[i] = len(g.nodes[i].fanin)
		if remaining[i] == 0 {
			queue = append(queue, i)
		}
	}
	placed := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		placed++
		for g.nodes[i].level >= len(g.levels) {
			g.levels = append(g.levels, nil)
		}
		g.levels[g.nodes[i].level] = append(g.levels[g.nodes[i].level], i)
		for _, e := range g.nodes[i].fanout {
			j := e.to
			if l := g.nodes[i].level + 1; l > g.nodes[j].level {
				g.nodes[j].level = l
			}
			remaining[j]--
			if remaining[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if placed < len(g.nodes) {
		for i := range g.nodes {
			if remaining[i] > 0 {
				return nil, fmt.Errorf("timing: stage edges form a cycle through net %q", g.nodes[i].name)
			}
		}
	}
	for _, level := range g.levels {
		sort.Ints(level)
	}
	return g, nil
}

func isDesignatedOutput(t *rctree.Tree, name string) bool {
	id, ok := t.Lookup(name)
	if !ok {
		return false
	}
	for _, o := range t.Outputs() {
		if o == id {
			return true
		}
	}
	return false
}

// Nets reports the number of nets in the graph.
func (g *Graph) Nets() int { return len(g.nodes) }

// Levels reports the number of pipeline levels (longest net chain).
func (g *Graph) Levels() int { return len(g.levels) }

// netTiming is the per-net working state of one analysis.
type netTiming struct {
	input Interval            // arrival interval at the net's driven input
	out   map[string]Interval // arrival interval at each designated output
	delay map[string]Interval // [TMin, TMax] of each output at the threshold
	// worst is the fanin edge realizing input.Max, the critical-path
	// predecessor (-1 for primary inputs).
	worst int
}

// resolved is the fully-defaulted execution plan of one analysis.
type resolved struct {
	th      float64
	k       int
	workers int // >= 1
	obs     *obs.Registry
}

// resolve applies the Options defaults: threshold 0.5, 5 critical paths, and
// GOMAXPROCS workers (one when Sequential).
func (opt Options) resolve() (resolved, error) {
	r := resolved{th: opt.Threshold, k: opt.K, workers: opt.Workers, obs: opt.Obs}
	if r.th == 0 {
		r.th = 0.5
	}
	if r.th <= 0 || r.th >= 1 {
		return resolved{}, fmt.Errorf("timing: threshold %g outside (0,1)", r.th)
	}
	if r.k == 0 {
		r.k = 5
	}
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	if opt.Sequential {
		r.workers = 1
	}
	return r, nil
}

// gatherInput recomputes net i's input arrival interval and worst fanin edge
// from its drivers' (already final) output arrivals. Primary-input nets get
// the degenerate [0, 0] interval and worst -1.
func (g *Graph) gatherInput(state []netTiming, i int) (Interval, int) {
	var in Interval
	worst := -1
	for ei, e := range g.nodes[i].fanin {
		cand := state[e.driver].out[e.output].add(e.delay)
		if ei == 0 {
			in, worst = cand, 0
			continue
		}
		if cand.Max > in.Max {
			worst = ei
		}
		in = in.hull(cand)
	}
	return in, worst
}

// Analyze propagates interval arrivals over the flat arena and assembles the
// chip report; see the package comment for the model.
func (g *Graph) Analyze(ctx context.Context, opt Options) (*Report, error) {
	r, err := opt.resolve()
	if err != nil {
		return nil, err
	}
	state, err := g.computeState(ctx, r)
	if err != nil {
		return nil, err
	}
	return g.report(state, r.th, r.k, opt.Required, g.treeOutputNames), nil
}

// computeState runs the full sweep and returns the complete per-net working
// state a Session continues from. The propagation happens entirely in flat
// arrays; the map-form state is materialized once at the end.
func (g *Graph) computeState(ctx context.Context, r resolved) ([]netTiming, error) {
	da, err := g.arenaWith(ctx, r.obs)
	if err != nil {
		return nil, err
	}
	st := da.newState()
	// Clamp before labelling, so the series names the path that runs: a
	// worker beyond one per net would only spin idle.
	workers := min(r.workers, da.nets)
	sched := "worksteal"
	if workers <= 1 {
		sched = "sequential"
	}
	pctx, op := trace.StartOp(ctx, r.obs, "timing_propagate", "core", "arena", "sched", sched)
	err = da.propagate(pctx, st, r.th, workers, nil)
	op.SetError(err)
	op.End()
	if err != nil {
		return nil, err
	}
	return da.netTimings(st), nil
}

// treeOutputNames lists net i's designated output names in designation
// order — the Analyze-time source; Sessions substitute their EditTrees'.
func (g *Graph) treeOutputNames(i int) []string {
	t := g.nodes[i].tree
	outs := t.Outputs()
	names := make([]string, len(outs))
	for j, o := range outs {
		names[j] = t.Name(o)
	}
	return names
}

// report assembles endpoint slacks, WNS/TNS and the K critical paths.
// outputNames supplies net i's designated output names (treeOutputNames at
// Analyze time; a Session's current EditTree outputs after edits).
func (g *Graph) report(state []netTiming, th float64, k int, defRequired float64, outputNames func(i int) []string) *Report {
	required := map[[2]string]float64{}
	for _, r := range g.design.Requires {
		required[[2]string{r.Net, r.Output}] = r.Time
	}
	rep := &Report{
		Design:    g.design.Name,
		Threshold: th,
		Nets:      len(g.nodes),
		Stages:    len(g.design.Stages),
		Levels:    len(g.levels),
		WNS:       math.Inf(1),
	}
	for i := range g.nodes {
		node := &g.nodes[i]
		for _, name := range outputNames(i) {
			req, explicit := required[[2]string{node.name, name}]
			if !explicit && node.drives[name] {
				continue // interior output: drives a stage, no requirement
			}
			ep := EndpointSlack{
				Net:      node.name,
				Output:   name,
				Arrival:  state[i].out[name],
				Required: math.Inf(1),
				Slack:    math.Inf(1),
				Verdict:  core.Passes,
				net:      i,
			}
			if !explicit && defRequired > 0 {
				req, explicit = defRequired, true
			}
			if explicit {
				ep.Required = req
				ep.Slack = req - ep.Arrival.Max
				switch {
				case ep.Arrival.Max <= req:
					ep.Verdict = core.Passes
				case ep.Arrival.Min > req:
					ep.Verdict = core.Fails
				default:
					ep.Verdict = core.Unknown
				}
				if ep.Slack < rep.WNS {
					rep.WNS = ep.Slack
				}
				if ep.Slack < 0 {
					rep.TNS += ep.Slack
				}
			}
			rep.Endpoints = append(rep.Endpoints, ep)
		}
	}
	// Sort an index permutation rather than the (large) endpoint structs:
	// designs have nets×outputs endpoints and the struct moves dominate a
	// direct sort.SliceStable on profiles.
	perm := make([]int, len(rep.Endpoints))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ea, eb := &rep.Endpoints[perm[a]], &rep.Endpoints[perm[b]]
		// Constrained endpoints by ascending slack, then unconstrained by
		// descending latest arrival; names break ties.
		if ea.Slack != eb.Slack {
			return ea.Slack < eb.Slack
		}
		if ea.Arrival.Max != eb.Arrival.Max {
			return ea.Arrival.Max > eb.Arrival.Max
		}
		if ea.Net != eb.Net {
			return ea.Net < eb.Net
		}
		return ea.Output < eb.Output
	})
	sorted := make([]EndpointSlack, len(rep.Endpoints))
	for i, j := range perm {
		sorted[i] = rep.Endpoints[j]
	}
	rep.Endpoints = sorted
	for i := 0; i < len(rep.Endpoints) && i < k; i++ {
		rep.Paths = append(rep.Paths, g.backtrack(state, rep.Endpoints[i]))
	}
	return rep
}

// backtrack reconstructs the critical path ending at ep: from the endpoint
// net, follow each net's worst-arrival fanin edge back to a primary input,
// then emit hops root-first.
func (g *Graph) backtrack(state []netTiming, ep EndpointSlack) Path {
	type rev struct {
		net    int
		output string  // output the path leaves the net through
		delay  float64 // gate delay to the successor net
	}
	var chain []rev
	cur, out, delay := ep.net, ep.Output, 0.0
	for {
		chain = append(chain, rev{cur, out, delay})
		st := state[cur]
		if st.worst < 0 {
			break
		}
		e := g.nodes[cur].fanin[st.worst]
		cur, out, delay = e.driver, e.output, e.delay
	}
	p := Path{Endpoint: ep.Net + "/" + ep.Output, Slack: ep.Slack}
	for i := len(chain) - 1; i >= 0; i-- {
		h := chain[i]
		st := state[h.net]
		p.Hops = append(p.Hops, PathHop{
			Net:           g.nodes[h.net].name,
			Output:        h.output,
			InputArrival:  st.input,
			NetDelay:      st.delay[h.output],
			OutputArrival: st.out[h.output],
			StageDelay:    h.delay,
		})
	}
	return p
}

// Analyze is the one-call form: build the graph and analyze it. The graph
// build (stage resolution plus Kahn levelization) gets its own span on
// opt.Obs, separate from the propagation spans Analyze records.
func Analyze(ctx context.Context, d *netlist.Design, opt Options) (*Report, error) {
	_, op := trace.StartOp(ctx, opt.Obs, "timing_levelize")
	g, err := NewGraph(d)
	op.SetError(err)
	op.End()
	if err != nil {
		return nil, err
	}
	return g.Analyze(ctx, opt)
}
