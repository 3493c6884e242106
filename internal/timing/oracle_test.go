package timing

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
)

// The differential reference the arena and sessions are pinned to. Every net
// is timed by core.AnalyzeTree, a pointer walk over its *rctree.Tree that
// shares no code with rctree.TimesFlat, and arrival intervals are folded in
// a depth-first topological order built here from the design's stages — not
// through Graph, gatherInput or the arena's levelization. Only the
// netTiming and Report shapes are shared with the code under test.

// oracleState computes the per-net working state of d at threshold th,
// indexed like d.Nets.
func oracleState(t *testing.T, d *netlist.Design, th float64) []netTiming {
	t.Helper()
	index := make(map[string]int, len(d.Nets))
	for i, n := range d.Nets {
		index[n.Name] = i
	}
	// Each net's fanin in deck order, the order worst-fanin indices count in.
	fanin := make([][]netlist.Stage, len(d.Nets))
	for _, s := range d.Stages {
		to := index[s.ToNet]
		fanin[to] = append(fanin[to], s)
	}
	state := make([]netTiming, len(d.Nets))
	done := make([]bool, len(d.Nets))
	var visit func(i int)
	visit = func(i int) {
		if done[i] {
			return
		}
		done[i] = true
		for _, s := range fanin[i] {
			visit(index[s.FromNet])
		}
		st := &state[i]
		st.worst = -1
		for e, s := range fanin[i] {
			drv := state[index[s.FromNet]].out[s.FromOutput]
			cand := Interval{drv.Min + s.Delay, drv.Max + s.Delay}
			if e == 0 {
				st.input, st.worst = cand, 0
				continue
			}
			if cand.Max > st.input.Max {
				st.worst = e
			}
			st.input = Interval{math.Min(st.input.Min, cand.Min), math.Max(st.input.Max, cand.Max)}
		}
		results, err := core.AnalyzeTree(d.Nets[i].Tree)
		if err != nil {
			t.Fatalf("oracle: net %q: %v", d.Nets[i].Name, err)
		}
		st.delay = make(map[string]Interval, len(results))
		st.out = make(map[string]Interval, len(results))
		for _, r := range results {
			dl := Interval{r.Bounds.TMin(th), r.Bounds.TMax(th)}
			st.delay[r.Name] = dl
			st.out[r.Name] = Interval{st.input.Min + dl.Min, st.input.Max + dl.Max}
		}
	}
	for i := range d.Nets {
		visit(i)
	}
	return state
}

// oracleReport derives the endpoint table, WNS and TNS from an oracle state.
// An output is an endpoint unless it drives a stage without a .require card;
// defRequired > 0 constrains endpoints that have none.
func oracleReport(d *netlist.Design, state []netTiming, defRequired float64) *Report {
	drives := map[[2]string]bool{}
	for _, s := range d.Stages {
		drives[[2]string{s.FromNet, s.FromOutput}] = true
	}
	required := map[[2]string]float64{}
	for _, r := range d.Requires {
		required[[2]string{r.Net, r.Output}] = r.Time
	}
	rep := &Report{WNS: math.Inf(1)}
	for i, n := range d.Nets {
		for _, o := range n.Tree.Outputs() {
			key := [2]string{n.Name, n.Tree.Name(o)}
			req, constrained := required[key]
			if !constrained && drives[key] {
				continue
			}
			if !constrained && defRequired > 0 {
				req, constrained = defRequired, true
			}
			ep := EndpointSlack{Net: key[0], Output: key[1], Arrival: state[i].out[key[1]], Slack: math.Inf(1)}
			if constrained {
				ep.Slack = req - ep.Arrival.Max
				rep.WNS = math.Min(rep.WNS, ep.Slack)
				if ep.Slack < 0 {
					rep.TNS += ep.Slack
				}
			}
			rep.Endpoints = append(rep.Endpoints, ep)
		}
	}
	return rep
}
