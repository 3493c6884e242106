package rctree

import (
	"math/rand"
	"testing"
)

// randomFlatTree builds a random valid tree: random topology with a bias
// toward chains (deep) or stars (wide), mixed resistor/line edges, scattered
// lumped caps and outputs.
func randomFlatTree(t *testing.T, rng *rand.Rand, nodes int) *Tree {
	t.Helper()
	b := NewBuilder("in")
	ids := []NodeID{Root}
	shape := rng.Intn(3) // 0: random, 1: chain-biased, 2: star-biased
	for len(ids) < nodes {
		var parent NodeID
		switch shape {
		case 1:
			parent = ids[len(ids)-1]
		case 2:
			parent = Root
		default:
			parent = ids[rng.Intn(len(ids))]
		}
		var id NodeID
		if rng.Intn(3) == 0 {
			id = b.Line(parent, "", 0.5+rng.Float64()*10, 0.1+rng.Float64()*5)
		} else {
			id = b.Resistor(parent, "", 0.5+rng.Float64()*10)
		}
		if rng.Intn(2) == 0 {
			b.Capacitor(id, rng.Float64()*3)
		}
		ids = append(ids, id)
	}
	b.Capacitor(Root, 0.1) // guarantee some capacitance
	for _, id := range ids[1:] {
		if rng.Intn(4) == 0 {
			b.Output(id)
		}
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatalf("random tree invalid: %v", err)
	}
	return tree
}

// flatTree holds a Tree as the parallel columns TimesFlat reads.
type flatTree struct {
	parent              []int32
	kind                []uint8
	edgeR, edgeC, nodeC []float64
}

// flatten lays a tree out column by column in its node order, which is
// topological (parent before child).
func flatten(t *Tree) flatTree {
	n := t.NumNodes()
	f := flatTree{
		parent: make([]int32, n),
		kind:   make([]uint8, n),
		edgeR:  make([]float64, n),
		edgeC:  make([]float64, n),
		nodeC:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		id := NodeID(i)
		k, r, c := t.Edge(id)
		f.parent[i] = int32(t.Parent(id))
		f.kind[i], f.edgeR[i], f.edgeC[i] = uint8(k), r, c
		f.nodeC[i] = t.NodeCap(id)
	}
	return f
}

func (f flatTree) times(e int, s *Scratch) (Times, error) {
	return TimesFlat(f.parent, f.kind, f.edgeR, f.edgeC, f.nodeC, e, s)
}

// TestTimesFlatMatchTree pins the flat pass to the pointer-tree pass: the
// two implementations walk nodes in the same order, so the sums must agree
// exactly, for every output of many random trees.
func TestTimesFlatMatchTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		tree := randomFlatTree(t, rng, 2+rng.Intn(40))
		f := flatten(tree)
		for _, e := range tree.Outputs() {
			want, err := tree.CharacteristicTimes(e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.times(int(e), &s)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d output %d: flat %+v != tree %+v", trial, e, got, want)
			}
		}
	}
}

func TestTimesFlatErrors(t *testing.T) {
	b := NewBuilder("in")
	b.Capacitor(b.Resistor(Root, "o", 1), 1)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := flatten(tree)
	var s Scratch
	if _, err := f.times(-1, &s); err == nil {
		t.Error("negative output accepted")
	}
	if _, err := f.times(tree.NumNodes(), &s); err == nil {
		t.Error("out-of-range output accepted")
	}
}

// TestTimesFlatZeroAlloc asserts the flat pass allocates nothing once the
// scratch has grown — the property the design-level hot path depends on.
func TestTimesFlatZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	tree := randomFlatTree(t, rand.New(rand.NewSource(3)), 64)
	f := flatten(tree)
	var s Scratch
	e := int(tree.Outputs()[0])
	if _, err := f.times(e, &s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := f.times(e, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TimesFlat allocates %v times per run on the steady state", allocs)
	}
}
