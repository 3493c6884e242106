// Package rctree models RC tree networks as defined by Penfield and
// Rubinstein: a resistor tree with no resistor to ground, driven at a single
// input node, where every node may carry a lumped capacitor to ground and any
// resistor may be replaced by a distributed uniform RC line.
//
// The package provides a builder for constructing trees, structural
// validation, traversal helpers, and the computation of the three
// characteristic times (TP, TDe, TRe) for any output, including the
// closed-form contributions of distributed lines.
package rctree

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a node within a Tree. The input (root) node of a valid
// tree is always NodeID 0.
type NodeID int

// Root is the NodeID of the input node of every tree built by Builder.
const Root NodeID = 0

// EdgeKind distinguishes the element connecting a node to its parent.
type EdgeKind int

const (
	// EdgeNone marks the root, which has no parent element.
	EdgeNone EdgeKind = iota
	// EdgeResistor is a lumped resistor (R > 0, C == 0).
	EdgeResistor
	// EdgeLine is a distributed uniform RC line (R >= 0, C >= 0).
	EdgeLine
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeNone:
		return "none"
	case EdgeResistor:
		return "resistor"
	case EdgeLine:
		return "line"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// node is the internal per-node record.
type node struct {
	name     string
	parent   NodeID // -1 for root
	kind     EdgeKind
	edgeR    float64 // resistance of element to parent
	edgeC    float64 // distributed capacitance of element to parent (lines only)
	nodeC    float64 // total lumped capacitance at this node
	children []NodeID
}

// Tree is an immutable RC tree produced by a Builder. The zero value is not
// usable; obtain trees from Builder.Build, netlist parsing, or the algebra
// package.
type Tree struct {
	nodes   []node
	outputs []NodeID
	byName  map[string]NodeID
}

// NumNodes reports the number of nodes, including the input.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Outputs returns the designated output nodes in the order they were added.
// The returned slice must not be modified.
func (t *Tree) Outputs() []NodeID { return t.outputs }

// Name returns the name of node id.
func (t *Tree) Name(id NodeID) string { return t.nodes[id].name }

// Lookup finds a node by name.
func (t *Tree) Lookup(name string) (NodeID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// Parent returns the parent of id, or -1 for the root.
func (t *Tree) Parent(id NodeID) NodeID { return t.nodes[id].parent }

// Children returns the children of id. The returned slice must not be
// modified.
func (t *Tree) Children(id NodeID) []NodeID { return t.nodes[id].children }

// Edge describes the element connecting id to its parent.
func (t *Tree) Edge(id NodeID) (kind EdgeKind, r, c float64) {
	n := &t.nodes[id]
	return n.kind, n.edgeR, n.edgeC
}

// NodeCap returns the lumped capacitance attached at node id.
func (t *Tree) NodeCap(id NodeID) float64 { return t.nodes[id].nodeC }

// TotalCap returns the sum of all capacitance in the tree, lumped and
// distributed.
func (t *Tree) TotalCap() float64 {
	var sum float64
	for i := range t.nodes {
		sum += t.nodes[i].nodeC + t.nodes[i].edgeC
	}
	return sum
}

// TotalRes returns the sum of all resistance in the tree.
func (t *Tree) TotalRes() float64 {
	var sum float64
	for i := range t.nodes {
		sum += t.nodes[i].edgeR
	}
	return sum
}

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Depth() int {
	depth := make([]int, len(t.nodes))
	max := 0
	for i := 1; i < len(t.nodes); i++ { // nodes are stored in topological order
		depth[i] = depth[t.nodes[i].parent] + 1
		if depth[i] > max {
			max = depth[i]
		}
	}
	return max
}

// PathResistance returns the total resistance of the unique path from the
// input to node id (the quantity the paper writes as Rkk).
func (t *Tree) PathResistance(id NodeID) float64 {
	var r float64
	for id != Root {
		r += t.nodes[id].edgeR
		id = t.nodes[id].parent
	}
	return r
}

// PathTo returns the node sequence from the input to id, inclusive.
func (t *Tree) PathTo(id NodeID) []NodeID {
	var rev []NodeID
	for {
		rev = append(rev, id)
		if id == Root {
			break
		}
		id = t.nodes[id].parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// IsAncestor reports whether a is an ancestor of (or equal to) b.
func (t *Tree) IsAncestor(a, b NodeID) bool {
	for {
		if a == b {
			return true
		}
		if b == Root {
			return false
		}
		b = t.nodes[b].parent
	}
}

// CommonAncestor returns the deepest node that lies on both root paths.
func (t *Tree) CommonAncestor(a, b NodeID) NodeID {
	seen := make(map[NodeID]bool)
	for x := a; ; x = t.nodes[x].parent {
		seen[x] = true
		if x == Root {
			break
		}
	}
	for x := b; ; x = t.nodes[x].parent {
		if seen[x] {
			return x
		}
		if x == Root {
			return Root
		}
	}
}

// Walk visits every node in topological (parent-before-child) order.
func (t *Tree) Walk(fn func(id NodeID)) {
	for i := range t.nodes {
		fn(NodeID(i))
	}
}

// String renders an indented ASCII view of the tree, useful in error
// messages and examples.
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(id NodeID, depth int)
	rec = func(id NodeID, depth int) {
		n := &t.nodes[id]
		b.WriteString(strings.Repeat("  ", depth))
		switch n.kind {
		case EdgeNone:
			fmt.Fprintf(&b, "%s (input)", n.name)
		case EdgeResistor:
			fmt.Fprintf(&b, "%s --R=%g--", n.name, n.edgeR)
		case EdgeLine:
			fmt.Fprintf(&b, "%s --URC R=%g C=%g--", n.name, n.edgeR, n.edgeC)
		}
		if n.nodeC != 0 {
			fmt.Fprintf(&b, " [C=%g]", n.nodeC)
		}
		if t.isOutput(id) {
			b.WriteString(" *output*")
		}
		b.WriteByte('\n')
		for _, c := range n.children {
			rec(c, depth+1)
		}
	}
	rec(Root, 0)
	return b.String()
}

func (t *Tree) isOutput(id NodeID) bool {
	for _, o := range t.outputs {
		if o == id {
			return true
		}
	}
	return false
}

// Builder constructs a Tree incrementally. Methods that add elements return
// the new node's ID; errors are deferred and reported by Build so call sites
// stay linear.
type Builder struct {
	nodes   []node
	outputs []NodeID
	byName  map[string]NodeID
	errs    []error
}

// NewBuilder returns a Builder whose input node has the given name (the empty
// string defaults to "in").
func NewBuilder(inputName string) *Builder {
	if inputName == "" {
		inputName = "in"
	}
	b := &Builder{byName: map[string]NodeID{}}
	b.nodes = append(b.nodes, node{name: inputName, parent: -1, kind: EdgeNone})
	b.byName[inputName] = Root
	return b
}

// Grow reserves room for n more nodes, so a caller that knows the tree's
// size up front adds them without reallocating.
func (b *Builder) Grow(n int) {
	if n <= 0 {
		return
	}
	b.nodes = slices.Grow(b.nodes, n)
	byName := make(map[string]NodeID, len(b.byName)+n)
	maps.Copy(byName, b.byName)
	b.byName = byName
}

func (b *Builder) errf(format string, args ...any) NodeID {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
	return Root
}

func (b *Builder) addNode(parent NodeID, name string, kind EdgeKind, r, c float64) NodeID {
	if int(parent) < 0 || int(parent) >= len(b.nodes) {
		return b.errf("rctree: parent %d out of range", parent)
	}
	if name == "" {
		name = fmt.Sprintf("n%d", len(b.nodes))
	}
	if _, dup := b.byName[name]; dup {
		return b.errf("rctree: duplicate node name %q", name)
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, node{name: name, parent: parent, kind: kind, edgeR: r, edgeC: c})
	b.byName[name] = id
	return id
}

// Resistor adds a lumped resistor of value r ohms from parent to a new node.
func (b *Builder) Resistor(parent NodeID, name string, r float64) NodeID {
	if r <= 0 {
		return b.errf("rctree: resistor %q must have R > 0, got %g", name, r)
	}
	return b.addNode(parent, name, EdgeResistor, r, 0)
}

// Line adds a distributed uniform RC line with total resistance r and total
// capacitance c from parent to a new node. Either value may be zero (the
// paper's URC primitive degenerates to a lumped capacitor or resistor), but
// not both.
func (b *Builder) Line(parent NodeID, name string, r, c float64) NodeID {
	switch {
	case r < 0 || c < 0:
		return b.errf("rctree: line %q must have R, C >= 0, got R=%g C=%g", name, r, c)
	case r == 0 && c == 0:
		return b.errf("rctree: line %q has R=0 and C=0", name)
	case c == 0:
		return b.addNode(parent, name, EdgeResistor, r, 0)
	case r == 0:
		// A zero-resistance line is a lumped capacitor at the parent node.
		b.Capacitor(parent, c)
		return parent
	}
	return b.addNode(parent, name, EdgeLine, r, c)
}

// Capacitor attaches a lumped capacitor of value c farads from node to
// ground. Multiple capacitors at a node accumulate.
func (b *Builder) Capacitor(node NodeID, c float64) {
	if c < 0 {
		b.errf("rctree: capacitor at node %d must have C >= 0, got %g", node, c)
		return
	}
	if int(node) < 0 || int(node) >= len(b.nodes) {
		b.errf("rctree: capacitor parent %d out of range", node)
		return
	}
	b.nodes[node].nodeC += c
}

// Output marks node as an output of the tree. Outputs may be taken anywhere,
// per the paper; marking the same node twice is an error.
func (b *Builder) Output(node NodeID) {
	if int(node) < 0 || int(node) >= len(b.nodes) {
		b.errf("rctree: output %d out of range", node)
		return
	}
	for _, o := range b.outputs {
		if o == node {
			b.errf("rctree: node %q marked as output twice", b.nodes[node].name)
			return
		}
	}
	b.outputs = append(b.outputs, node)
}

// Build validates and returns the tree. If no output was designated, every
// leaf is promoted to an output (a convenient default for exploratory use).
func (b *Builder) Build() (*Tree, error) {
	if len(b.errs) > 0 {
		msgs := make([]string, len(b.errs))
		for i, e := range b.errs {
			msgs[i] = e.Error()
		}
		sort.Strings(msgs)
		return nil, fmt.Errorf("rctree: invalid tree: %s", strings.Join(msgs, "; "))
	}
	linkChildren(b.nodes)
	t := &Tree{nodes: b.nodes, outputs: b.outputs, byName: b.byName}
	if len(t.outputs) == 0 {
		for i := range t.nodes {
			if len(t.nodes[i].children) == 0 && NodeID(i) != Root {
				t.outputs = append(t.outputs, NodeID(i))
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// linkChildren fills every node's children list from the parent links, all
// lists sharing one array. Ids ascend in creation order, so each list is in
// the order its children were added.
func linkChildren(nodes []node) {
	count := make([]int32, len(nodes)+1)
	for i := 1; i < len(nodes); i++ {
		count[nodes[i].parent+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	kids := make([]NodeID, max(len(nodes)-1, 0))
	for i := range nodes {
		nodes[i].children = nil
		if lo, hi := count[i], count[i+1]; lo < hi {
			nodes[i].children = kids[lo:lo:hi]
		}
	}
	for i := 1; i < len(nodes); i++ {
		p := nodes[i].parent
		nodes[p].children = append(nodes[p].children, NodeID(i))
	}
}

// Validate checks the structural invariants of the tree: a single root at
// index 0, parent indices preceding children (acyclicity), nonnegative
// element values, and at least some capacitance and resistance so the
// characteristic times are well defined.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("rctree: empty tree")
	}
	if t.nodes[0].parent != -1 || t.nodes[0].kind != EdgeNone {
		return fmt.Errorf("rctree: node 0 must be the input")
	}
	for i := 1; i < len(t.nodes); i++ {
		n := &t.nodes[i]
		if n.parent < 0 || int(n.parent) >= i {
			return fmt.Errorf("rctree: node %q has invalid parent %d", n.name, n.parent)
		}
		if n.kind == EdgeNone {
			return fmt.Errorf("rctree: non-root node %q lacks a parent element", n.name)
		}
		if n.edgeR < 0 || n.edgeC < 0 || n.nodeC < 0 {
			return fmt.Errorf("rctree: node %q has a negative element value", n.name)
		}
		if n.kind == EdgeResistor && n.edgeR <= 0 {
			return fmt.Errorf("rctree: resistor to node %q must be positive", n.name)
		}
	}
	if t.TotalCap() <= 0 {
		return fmt.Errorf("rctree: tree has no capacitance; characteristic times undefined")
	}
	for _, o := range t.outputs {
		if int(o) < 0 || int(o) >= len(t.nodes) {
			return fmt.Errorf("rctree: output id %d out of range", o)
		}
	}
	return nil
}
