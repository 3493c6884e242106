// Incremental analysis: the interactive-editing workflow. A designer (or an
// optimization loop) holds one EditTree, applies local edits — resize a
// driver, lengthen a wire, hang an extra load, prune a branch — and re-reads
// certified bounds after each one. Every probe costs O(depth) instead of the
// O(n)-per-output full analysis, which is what makes "drag the slider and
// watch the slack" workloads feasible (BenchmarkIncrementalSweep measures
// the gap at ~75x on a 1000-node tree, and cmd/rcserve exposes exactly this
// loop over HTTP as a one-net design: POST /design/{id}/edit, then GET
// /design/{id}/bounds).
package main

import (
	"fmt"
	"log"

	rcdelay "repro"
)

// The paper's Figure 7 tree as a netlist deck.
const deck = `.input in
R1 in n1 15
C1 n1 0 2
R2 n1 b 8
C2 b 0 7
U1 n1 n2 3 4
C3 n2 0 9
.output n2
`

func main() {
	tree, err := rcdelay.ParseNetlist(deck)
	if err != nil {
		log.Fatal(err)
	}
	et := rcdelay.NewEditTree(tree)
	out, _ := et.Lookup("n2")

	report := func(label string) rcdelay.Times {
		tm, err := et.Times(out)
		if err != nil {
			log.Fatal(err)
		}
		bounds, err := rcdelay.NewBounds(tm)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s TP=%7.2f TD=%7.2f TR=%7.2f   TMax(0.9)=%8.2f\n",
			label, tm.TP, tm.TD, tm.TR, bounds.TMax(0.9))
		return tm
	}

	report("figure 7 as published")

	// Probe 1: the driver is sized up (its effective resistance halves).
	if err := et.ScaleDriver(0.5); err != nil {
		log.Fatal(err)
	}
	report("driver sized up 2x")

	// Probe 2: the branch load at b grows (a bigger gate moved there).
	b, _ := et.Lookup("b")
	if err := et.SetCapacitance(b, 12); err != nil {
		log.Fatal(err)
	}
	report("branch load 7 -> 12 pF")

	// Probe 3: hang a new tap off n1 and watch the output slow down.
	n1, _ := et.Lookup("n1")
	tap, err := et.Grow(n1, "tap", rcdelay.EdgeLine, 6, 3)
	if err != nil {
		log.Fatal(err)
	}
	if err := et.AddCapacitance(tap, 2); err != nil {
		log.Fatal(err)
	}
	report("extra tap grown off n1")

	// Probe 4: the tap is abandoned; times return to the previous state.
	if err := et.Prune(tap); err != nil {
		log.Fatal(err)
	}
	report("tap pruned again")

	// Every answer above agrees with a from-scratch analysis of the edited
	// network to floating-point accuracy; materialize and check the last one.
	mt, mapping, err := et.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	full, err := rcdelay.CharacteristicTimes(mt, mapping[out])
	if err != nil {
		log.Fatal(err)
	}
	incr, err := et.Times(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nincremental TD %.12f vs full recompute TD %.12f (Δ=%.2e)\n",
		incr.TD, full.TD, incr.TD-full.TD)
}
