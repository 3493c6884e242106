package timing

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/randnet"
)

// diffDesignConfig draws a small random design shape so 300 of them stay
// fast while still covering chains, diamonds and multi-fanin merges.
func diffDesignConfig(rng *rand.Rand) randnet.DesignConfig {
	cfg := randnet.DefaultDesignConfig(1+rng.Intn(4), 1+rng.Intn(3))
	cfg.Net = randnet.DefaultConfig(4 + rng.Intn(10))
	cfg.FaninMax = 1 + rng.Intn(3)
	return cfg
}

// stateFor computes the full per-net working state of d under opt.
func stateFor(t *testing.T, d *netlist.Design, opt Options) (*Graph, []netTiming) {
	t.Helper()
	g, err := NewGraph(d)
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	r, err := opt.resolve()
	if err != nil {
		t.Fatal(err)
	}
	state, err := g.computeState(context.Background(), r)
	if err != nil {
		t.Fatalf("computeState: %v", err)
	}
	return g, state
}

// assertStatesClose compares two full working states net by net — input
// interval, every output's delay and arrival interval, and the worst-fanin
// choice — to 1e-9.
func assertStatesClose(t *testing.T, g *Graph, got, want []netTiming, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: state length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		name := g.nodes[i].name
		if !intervalsClose(got[i].input, want[i].input) {
			t.Fatalf("%s: net %s input %+v vs %+v", label, name, got[i].input, want[i].input)
		}
		if got[i].worst != want[i].worst {
			t.Fatalf("%s: net %s worst fanin %d vs %d", label, name, got[i].worst, want[i].worst)
		}
		if len(got[i].delay) != len(want[i].delay) || len(got[i].out) != len(want[i].out) {
			t.Fatalf("%s: net %s output sets differ", label, name)
		}
		for out, w := range want[i].delay {
			gv, ok := got[i].delay[out]
			if !ok || !intervalsClose(gv, w) {
				t.Fatalf("%s: net %s/%s delay %+v vs %+v", label, name, out, gv, w)
			}
		}
		for out, w := range want[i].out {
			gv, ok := got[i].out[out]
			if !ok || !intervalsClose(gv, w) {
				t.Fatalf("%s: net %s/%s arrival %+v vs %+v", label, name, out, gv, w)
			}
		}
	}
}

// assertReportsClose compares endpoint slacks, WNS and TNS between two full
// reports of the same design, keyed by endpoint (sorting may permute ties).
func assertReportsClose(t *testing.T, got, want *Report, label string) {
	t.Helper()
	if len(got.Endpoints) != len(want.Endpoints) {
		t.Fatalf("%s: endpoint count %d vs %d", label, len(got.Endpoints), len(want.Endpoints))
	}
	type key struct{ net, output string }
	byKey := map[key]EndpointSlack{}
	for _, e := range got.Endpoints {
		byKey[key{e.Net, e.Output}] = e
	}
	for _, w := range want.Endpoints {
		g, ok := byKey[key{w.Net, w.Output}]
		if !ok {
			t.Fatalf("%s: endpoint %s/%s missing", label, w.Net, w.Output)
		}
		if !intervalsClose(g.Arrival, w.Arrival) || !closeEnough(g.Slack, w.Slack) {
			t.Fatalf("%s: endpoint %s/%s arrival %+v slack %g vs %+v / %g",
				label, w.Net, w.Output, g.Arrival, g.Slack, w.Arrival, w.Slack)
		}
	}
	if !closeEnough(got.WNS, want.WNS) || !closeEnough(got.TNS, want.TNS) {
		t.Fatalf("%s: WNS/TNS %g/%g vs %g/%g", label, got.WNS, got.TNS, want.WNS, want.TNS)
	}
}

// TestDifferentialArenaVsPointer is the cross-implementation property test:
// 300 randomized designs analyzed by the flat arena (sequential and
// work-stealing at two worker counts) must agree with the pointer-tree
// oracle on every net bound, arrival interval, endpoint slack, WNS and TNS
// to 1e-9.
func TestDifferentialArenaVsPointer(t *testing.T) {
	designs := 300
	if testing.Short() {
		designs = 60
	}
	rng := rand.New(rand.NewSource(20260807))
	ctx := context.Background()
	for n := 0; n < designs; n++ {
		d := randnet.Design(rng, diffDesignConfig(rng))
		th := 0.3 + rng.Float64()*0.5
		required := 0.0
		if rng.Intn(2) == 0 {
			required = 50 + rng.Float64()*1e3
		}
		want := oracleState(t, d, th)
		variants := []Options{
			{Threshold: th, Sequential: true},
			{Threshold: th, Workers: 3},
			{Threshold: th, Workers: 4},
		}
		for vi, opt := range variants {
			g, got := stateFor(t, d, opt)
			assertStatesClose(t, g, got, want, fmt.Sprintf("design %d variant %d", n, vi))
		}
		// Reports, through the public entry point.
		gotRep, err := Analyze(ctx, d, Options{Threshold: th, Required: required, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		assertReportsClose(t, gotRep, oracleReport(d, want, required), fmt.Sprintf("design %d report", n))
	}
}

// assertSessionMatchesOracle materializes the session's current design and
// checks the session's incremental state and report against the oracle's.
// With arena set, a from-scratch arena analysis of the same design must
// match the oracle too.
func assertSessionMatchesOracle(t *testing.T, s *Session, arena bool, label string) {
	t.Helper()
	d, err := s.Design()
	if err != nil {
		t.Fatalf("%s: materialize: %v", label, err)
	}
	want := oracleState(t, d, s.th)
	wantRep := oracleReport(d, want, s.required)
	assertStatesClose(t, s.g, s.state, want, label)
	assertReportsClose(t, s.Report(), wantRep, label)
	if !arena {
		return
	}
	g, got := stateFor(t, d, Options{Threshold: s.th, Sequential: true})
	assertStatesClose(t, g, got, want, label+" arena")
	full, err := Analyze(context.Background(), d, Options{
		Threshold: s.th, Required: s.required, K: s.k, Sequential: true,
	})
	if err != nil {
		t.Fatalf("%s: full analysis: %v", label, err)
	}
	assertReportsClose(t, full, wantRep, label+" arena")
}

// TestDifferentialECO extends the oracle check through ECO editing: per
// design, 50 random edits are absorbed incrementally and after every edit
// the session state must agree with the oracle on the materialized design,
// as must a from-scratch arena analysis after every other edit. Forked
// sessions are spliced in along the way: the fork absorbs its own edit, must
// match the oracle and the arena on its own materialized design, and the
// parent must stay bit-identical.
func TestDifferentialECO(t *testing.T) {
	designs := 300
	edits := 50
	if testing.Short() {
		designs = 30
	}
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < designs; n++ {
		d := randnet.Design(rng, diffDesignConfig(rng))
		s := newTestSession(t, d, Options{Threshold: 0.6, Required: 200})
		seq := 0
		for e := 0; e < edits; e++ {
			ed := randomEdit(rng, s, &seq)
			if _, err := s.Apply([]Edit{ed}); err != nil {
				continue // guarded edit (drain, orphan...) — rejection is fine
			}
			assertSessionMatchesOracle(t, s, e%2 == 1, fmt.Sprintf("design %d edit %d", n, e))
			if e == edits/2 {
				// Fork differential: edit the fork, check it against the
				// oracle and the arena, and pin the parent unchanged.
				parentWNS, parentTNS := s.summary()
				parentGen := s.Gen()
				f := s.Fork()
				fe := randomEdit(rng, f, &seq)
				if _, err := f.Apply([]Edit{fe}); err == nil {
					assertSessionMatchesOracle(t, f, true, fmt.Sprintf("design %d fork", n))
				}
				wns, tns := s.summary()
				if wns != parentWNS || tns != parentTNS || s.Gen() != parentGen {
					t.Fatalf("design %d: fork edit leaked into parent", n)
				}
			}
		}
	}
}
