package rcdelay_test

import (
	"context"
	"fmt"

	rcdelay "repro"
)

// The paper's Figure 7 network in its own algebraic notation (eq. 18),
// reproducing the Figure 10 session.
func Example_paperFigure10() {
	tree, out, err := rcdelay.ParseExpression(
		`(URC 15 0) WC (URC 0 2) WC (WB (URC 8 0) WC URC 0 7) WC (URC 3 4) WC URC 0 9`)
	if err != nil {
		panic(err)
	}
	tm, err := rcdelay.CharacteristicTimes(tree, out)
	if err != nil {
		panic(err)
	}
	fmt.Printf("TP=%.0f TD=%.0f TR=%.2f\n", tm.TP, tm.TD, tm.TR)

	b, err := rcdelay.NewBounds(tm)
	if err != nil {
		panic(err)
	}
	fmt.Printf("TMIN(0.5)=%.2f TMAX(0.5)=%.2f\n", b.TMin(0.5), b.TMax(0.5))
	fmt.Printf("VMIN(100)=%.5f VMAX(100)=%.5f\n", b.VMin(100), b.VMax(100))
	// Output:
	// TP=419 TD=363 TR=335.17
	// TMIN(0.5)=184.23 TMAX(0.5)=314.15
	// VMIN(100)=0.16644 VMAX(100)=0.35714
}

// Parsing the paper's algebraic notation: URC R C is a uniform distributed
// line, WC chains port 2 to port 1, WB attaches a dangling branch.
func ExampleParseExpression() {
	tree, out, err := rcdelay.ParseExpression(`(URC 15 0) WC (WB (URC 8 7)) WC URC 3 9`)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d nodes, output %q\n", tree.NumNodes(), tree.Name(out))
	tm, err := rcdelay.CharacteristicTimes(tree, out)
	if err != nil {
		panic(err)
	}
	fmt.Printf("TP=%.1f TD=%.1f\n", tm.TP, tm.TD)
	// Output:
	// 4 nodes, output "n3"
	// TP=281.5 TD=253.5
}

// Certifying a deadline with the OK predicate (Figure 9).
func ExampleBounds_OK() {
	tree, out, _ := rcdelay.ParseExpression(`(URC 380 0) WC (URC 0 0.04) WC URC 180 0.01`)
	b, err := rcdelay.BoundsFor(tree, out)
	if err != nil {
		panic(err)
	}
	for _, deadline := range []float64{10, 20, 60} {
		fmt.Printf("reach 0.7 by %g ps: %s\n", deadline, b.OK(0.7, deadline))
	}
	// Output:
	// reach 0.7 by 10 ps: fails
	// reach 0.7 by 20 ps: unknown
	// reach 0.7 by 60 ps: passes
}

// Building a fanout net programmatically and ranking its outputs.
func ExampleAnalyze() {
	b := rcdelay.NewBuilder("in")
	drv := b.Resistor(rcdelay.Root, "drv", 380)
	b.Capacitor(drv, 0.04)
	near := b.Line(drv, "near", 180, 0.01)
	b.Capacitor(near, 0.013)
	far := b.Line(drv, "far", 1440, 0.08)
	b.Capacitor(far, 0.013)
	b.Output(near)
	b.Output(far)
	tree, err := b.Build()
	if err != nil {
		panic(err)
	}
	results, err := rcdelay.Analyze(tree)
	if err != nil {
		panic(err)
	}
	for _, r := range rcdelay.CriticalOutputs(results, 0.7) {
		fmt.Printf("%s: TD=%.1f ps, certified by %.1f ps\n",
			r.Name, r.Times.TD, r.Bounds.TMax(0.7))
	}
	// Output:
	// far: TD=135.6 ps, certified by 213.3 ps
	// near: TD=62.5 ps, certified by 149.7 ps
}

// Analyzing many networks at once: jobs fan out across GOMAXPROCS workers
// and structurally identical networks (here jobs 0 and 2, despite different
// node names) share one characteristic-time computation via the
// content-hash cache. Results always come back in job order.
func ExampleAnalyzeBatch() {
	deck := func(name string) string {
		return ".input in\nR1 in " + name + " 15\nC1 " + name + " 0 2\n.output " + name + "\n"
	}
	var jobs []rcdelay.BatchJob
	for i, src := range []string{deck("a"), deck("b") + "C2 b 0 5\n", deck("z")} {
		tree, err := rcdelay.ParseNetlist(src)
		if err != nil {
			panic(err)
		}
		jobs = append(jobs, rcdelay.BatchJob{
			Tree:       tree,
			Tag:        fmt.Sprintf("job%d", i),
			Thresholds: []float64{0.9},
		})
	}
	for _, res := range rcdelay.AnalyzeBatch(context.Background(), jobs) {
		if res.Err != nil {
			panic(res.Err)
		}
		out := res.Outputs[0]
		fmt.Printf("%s: %s TD=%g TMax(0.9)=%.1f\n",
			res.Tag, out.Name, out.Times.TD, out.Delay[0].TMax)
	}
	// Output:
	// job0: a TD=30 TMax(0.9)=69.1
	// job1: b TD=105 TMax(0.9)=241.8
	// job2: z TD=30 TMax(0.9)=69.1
}

// Interactive probing: wrap a tree in an EditTree and every local edit plus
// re-query costs O(depth) instead of a full O(n) reanalysis — the engine
// behind opt's bisection loops and rcserve's one-net design edits.
func ExampleNewEditTree() {
	tree, err := rcdelay.ParseNetlist(
		".input in\nR1 in mid 15\nC1 mid 0 2\nR2 mid far 8\nC2 far 0 7\n.output far\n")
	if err != nil {
		panic(err)
	}
	et := rcdelay.NewEditTree(tree)
	far, _ := et.Lookup("far")
	mid, _ := et.Lookup("mid")

	tm, _ := et.Times(far)
	fmt.Printf("as parsed:      TD=%g\n", tm.TD)

	et.SetResistance(mid, 30) // probe: driver twice as weak
	tm, _ = et.Times(far)
	fmt.Printf("R1 15 -> 30:    TD=%g\n", tm.TD)

	et.SetCapacitance(far, 3) // probe: lighter far load
	tm, _ = et.Times(far)
	fmt.Printf("C2 7 -> 3:      TD=%g\n", tm.TD)
	// Output:
	// as parsed:      TD=191
	// R1 15 -> 30:    TD=326
	// C2 7 -> 3:      TD=174
}
