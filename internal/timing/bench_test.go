package timing

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/incr"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/randnet"
	"repro/internal/rctree"
	"repro/internal/trace"
)

// BenchmarkDesignSlack measures chip-level slack computation on a generated
// 6-level × 40-net design (240 nets):
//
//   - arena-sequential: the flat SoA/CSR arena on one goroutine — the
//     production default when GOMAXPROCS is 1;
//   - arena-worksteal: the work-stealing parallel schedule across
//     GOMAXPROCS workers, the production default on multicore.
func BenchmarkDesignSlack(b *testing.B) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	design := randnet.DesignSeed(123, cfg)
	g, err := NewGraph(design)
	if err != nil {
		b.Fatal(err)
	}
	if g.Nets() < 200 || g.Levels() < 5 {
		b.Fatalf("generated design too small: %d nets, %d levels", g.Nets(), g.Levels())
	}
	opt := Options{Threshold: 0.7, Required: 1e5, K: 5}
	run := func(b *testing.B, o Options) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Analyze(context.Background(), o); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("arena-sequential", func(b *testing.B) {
		o := opt
		o.Sequential = true
		run(b, o)
	})
	b.Run("arena-worksteal", func(b *testing.B) { run(b, opt) })
}

// BenchmarkArenaPropagation isolates the arena propagation kernel from graph
// build and report assembly: one prebuilt arena, one reusable state, one
// recycled propagation scratch. The sequential pass is the zero-alloc hot
// path (the allocs/op column must read 0); the work-stealing pass pays only
// goroutine startup and scheduler traffic on top, so comparing the two at
// GOMAXPROCS=1 vs all cores shows exactly what the work-stealing schedule
// buys (and costs) on a given machine.
func BenchmarkArenaPropagation(b *testing.B) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	design := randnet.DesignSeed(123, cfg)
	g, err := NewGraph(design)
	if err != nil {
		b.Fatal(err)
	}
	da, err := g.arena()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const th = 0.7
	b.Run("sequential", func(b *testing.B) {
		st := da.newState()
		var s rctree.Scratch
		if err := da.propagateSeq(ctx, st, th, &s); err != nil {
			b.Fatal(err) // warm the scratch before measuring
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := da.propagateSeq(ctx, st, th, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("worksteal", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		st := da.newState()
		ps := da.newPropScratch(workers)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := da.propagate(ctx, st, th, workers, ps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkArenaPropagationObs measures what the telemetry layer costs the
// full arena analysis path (computeState: propagation plus state
// materialization), obs disabled (nil registry: the no-op path every
// un-instrumented caller pays, one pointer test per phase) vs enabled (a
// live registry absorbing the spans). scripts/bench_trajectory.sh records
// the ratio as metrics_overhead in BENCH_timing.json; the no-op path must
// stay within 2% of a live registry (both are expected to be noise next to
// the propagation itself).
func BenchmarkArenaPropagationObs(b *testing.B) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	design := randnet.DesignSeed(123, cfg)
	g, err := NewGraph(design)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.arena(); err != nil {
		b.Fatal(err) // build the arena outside the measured region
	}
	ctx := context.Background()
	run := func(b *testing.B, reg *obs.Registry) {
		opt := Options{Threshold: 0.7, Sequential: true, Obs: reg}
		r, err := opt.resolve()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.computeState(ctx, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, obs.NewRegistry()) })
}

// BenchmarkArenaPropagationTrace is the tracing twin of
// BenchmarkArenaPropagationObs: the same arena analysis path with no trace
// in the context (the one-context-lookup no-op every untraced request pays)
// vs wrapped in a live trace, one root span per iteration as a request
// middleware would do, with the engine's StartOp child spans recording into
// it. scripts/bench_trajectory.sh records the ratio as trace_overhead in
// BENCH_timing.json; the contract is trace_overhead <= 1.05.
func BenchmarkArenaPropagationTrace(b *testing.B) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	design := randnet.DesignSeed(123, cfg)
	g, err := NewGraph(design)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.arena(); err != nil {
		b.Fatal(err) // build the arena outside the measured region
	}
	opt := Options{Threshold: 0.7, Sequential: true}
	r, err := opt.resolve()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("disabled", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.computeState(ctx, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tracer := trace.New(trace.Options{Capacity: 4, SlowThreshold: -1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx, root := tracer.Start(context.Background(), "bench")
			if _, err := g.computeState(ctx, r); err != nil {
				b.Fatal(err)
			}
			root.End()
		}
	})
}

// BenchmarkDesignECO measures the cost of absorbing a single-net ECO edit on
// the same 240-net design, two ways:
//
//   - full-reanalyze: the pre-session workflow — re-run the whole levelized
//     arena analysis after the edit, alternating between two prebuilt
//     graphs differing in one net (their arenas built outside the timer);
//     the cost is the full propagation over every net plus the report
//     build.
//   - dirty-cone: a Session absorbing the same alternating edit — one
//     O(depth) EditTree update, per-output bound refresh, and arrival
//     propagation only through the edited net's downstream cone.
//
// scripts/bench_trajectory.sh records the ratio in BENCH_timing.json.
func BenchmarkDesignECO(b *testing.B) {
	cfg := randnet.DefaultDesignConfig(6, 40)
	cfg.Net = randnet.DefaultConfig(60)
	design := randnet.DesignSeed(123, cfg)
	const editNet = "l3n0"
	tree := design.Net(editNet).Tree
	node := tree.Name(rctree.NodeID(1))
	_, r0, _ := tree.Edge(rctree.NodeID(1))
	rA, rB := r0*1.25, r0*0.8

	// The edited-variant design for the full-reanalysis baseline: the same
	// nets except the edited one.
	variant := func(r float64) *netlist.Design {
		et := incr.New(tree)
		id, ok := et.Lookup(node)
		if !ok {
			b.Fatalf("no node %q", node)
		}
		if err := et.SetResistance(id, r); err != nil {
			b.Fatal(err)
		}
		mat, _, err := et.Materialize()
		if err != nil {
			b.Fatal(err)
		}
		d := &netlist.Design{Name: design.Name, Stages: design.Stages, Requires: design.Requires}
		for _, n := range design.Nets {
			if n.Name == editNet {
				n.Tree = mat
			}
			d.Nets = append(d.Nets, n)
		}
		return d
	}
	ctx := context.Background()
	opt := Options{Threshold: 0.7, Required: 1e5, K: 5}

	b.Run("full-reanalyze", func(b *testing.B) {
		gA, err := NewGraph(variant(rA))
		if err != nil {
			b.Fatal(err)
		}
		gB, err := NewGraph(variant(rB))
		if err != nil {
			b.Fatal(err)
		}
		graphs := [2]*Graph{gA, gB}
		for _, g := range graphs {
			if _, err := g.arena(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := graphs[i%2].Analyze(ctx, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dirty-cone", func(b *testing.B) {
		s, err := NewSession(ctx, design, opt)
		if err != nil {
			b.Fatal(err)
		}
		rs := [2]float64{rA, rB}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Apply([]Edit{{Op: "setR", Net: editNet, Node: node, R: &rs[i%2]}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
