// Package netlist reads and writes RC trees in a small SPICE-like deck
// format, so networks can live in files rather than code:
//
//   - Figure 7 of the paper
//     .input in
//     R1 in  n1 15
//     C1 n1  0  2
//     R2 n1  b  8
//     C2 b   0  7
//     U1 n1  n2 3 4    ; uniform RC line: R=3, C=4
//     C3 n2  0  9
//     .output n2
//
// Cards: Rxxx a b value — lumped resistor; Cxxx a 0 value — capacitor to
// ground; Uxxx a b Rvalue Cvalue — distributed uniform RC line. Values
// accept SPICE engineering suffixes (k, meg, m, u, n, p, f). Comments start
// with '*' (whole line) or ';' (trailing). Elements may appear in any order;
// the parser orients the tree from the input node.
//
// Parse and ParseDesign share one single-pass reader: it walks the source
// line by line without copying it, and feeds each element card straight
// into a per-net deck that interns node names into dense ids, so every
// per-node table is a slice and the deck is reused from one design net to
// the next. Every error that concerns a card cites its line in the source
// as given, also inside a design's .net sections.
package netlist

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/rctree"
)

// scanner yields the cards of a deck one line at a time: the
// whitespace-separated fields of each line that is not blank or a '*'
// comment, after cutting a trailing ';' comment. The fields are substrings
// of the source, split as strings.Fields splits; the slice holding them is
// reused by the next call.
type scanner struct {
	src    string
	pos    int
	line   int // 1-based number of the current line
	fields []string
}

func (s *scanner) next() bool {
	for s.pos < len(s.src) {
		line := s.src[s.pos:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
			s.pos += i + 1
		} else {
			s.pos = len(s.src)
		}
		s.line++
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		s.fields = s.fields[:0]
		for f := range strings.FieldsSeq(line) {
			s.fields = append(s.fields, f)
		}
		if len(s.fields) > 0 && s.fields[0][0] != '*' {
			return true
		}
	}
	return false
}

// cardKind classifies a card by its first field.
type cardKind int

const (
	cardOther cardKind = iota
	cardInput
	cardOutput
	cardEnd
	cardDesign
	cardNet
	cardEndnet
	cardStage
	cardRequire
	cardR
	cardC
	cardU
)

var keywords = [...]struct {
	word string
	kind cardKind
}{
	{".INPUT", cardInput}, {".OUTPUT", cardOutput}, {".END", cardEnd},
	{".DESIGN", cardDesign}, {".NET", cardNet}, {".ENDNET", cardEndnet},
	{".STAGE", cardStage}, {".REQUIRE", cardRequire},
}

// classify matches head against the card keywords as strings.ToUpper(head)
// would, without allocating for an ASCII head.
func classify(head string) cardKind {
	for i := 0; i < len(head); i++ {
		if head[i] >= utf8.RuneSelf {
			head = strings.ToUpper(head)
			break
		}
	}
	if head[0] == '.' {
		for _, k := range keywords {
			if asciiUpperEq(head, k.word) {
				return k.kind
			}
		}
		return cardOther
	}
	switch head[0] {
	case 'R', 'r':
		return cardR
	case 'C', 'c':
		return cardC
	case 'U', 'u':
		return cardU
	}
	return cardOther
}

// asciiUpperEq reports whether the ASCII upper-casing of s equals upper.
func asciiUpperEq(s, upper string) bool {
	if len(s) != len(upper) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// edge is a two-terminal element between interned tree nodes,
// pre-orientation.
type edge struct {
	name   string
	a, b   int32
	r, c   float64
	isLine bool
	line   int
}

// deck accumulates the cards of one net. Node names are interned into dense
// int32 ids on first sight, so the per-node tables are slices indexed by id;
// reset empties the deck for the next net and keeps every buffer.
type deck struct {
	input    string
	edges    []edge
	outputs  []string
	ids      map[string]int32 // node name -> dense id
	seen     map[string]int   // upper-cased element name -> source line
	names    []string         // dense id -> node name
	caps     []float64        // dense id -> summed capacitance to ground
	capLine  []int            // dense id -> line of its first capacitor, 0 if none
	capNodes []int32          // nodes with a capacitor, by first capacitor line
	peak     int              // largest net the maps have held

	// build scratch
	adjOff []int32 // CSR: edges at node x are adj[adjOff[x]:adjOff[x+1]]
	adj    []int32
	tree   []rctree.NodeID // dense id -> tree node, -1 until visited
	used   []bool
	queue  []int32
}

// reset empties the deck for the next net. clear costs a map's capacity,
// not its length, so after a net far larger than the one just read the maps
// are remade at that net's size instead; a design of one huge net and many
// small ones would otherwise parse in quadratic time.
func (d *deck) reset() {
	n := max(len(d.ids), len(d.seen))
	if d.ids == nil || d.peak > 4*n+64 {
		d.ids, d.seen, d.peak = make(map[string]int32, n), make(map[string]int, n), n
	} else {
		clear(d.ids)
		clear(d.seen)
		d.peak = max(d.peak, n)
	}
	d.input = ""
	d.edges = d.edges[:0]
	d.outputs = d.outputs[:0]
	d.names = d.names[:0]
	d.caps = d.caps[:0]
	d.capLine = d.capLine[:0]
	d.capNodes = d.capNodes[:0]
}

// intern returns the dense id of node name, assigning the next one on first
// sight.
func (d *deck) intern(name string) int32 {
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := int32(len(d.names))
	d.ids[name] = id
	d.names = append(d.names, name)
	d.caps = append(d.caps, 0)
	d.capLine = append(d.capLine, 0)
	return id
}

// Parse reads a deck and returns the RC tree it describes.
func Parse(src string) (*rctree.Tree, error) {
	s := scanner{src: src}
	var d deck
	d.reset()
	for s.next() {
		if err := d.card(s.fields, s.line, classify(s.fields[0])); err != nil {
			return nil, err
		}
	}
	return d.build()
}

// card adds one element or directive card of kind k, read from line no.
func (d *deck) card(fields []string, no int, k cardKind) error {
	switch k {
	case cardInput:
		if len(fields) != 2 {
			return fmt.Errorf("netlist: line %d: .input takes exactly one node", no)
		}
		if d.input != "" {
			return fmt.Errorf("netlist: line %d: duplicate .input (already %q)", no, d.input)
		}
		d.input = fields[1]
		return nil
	case cardOutput:
		if len(fields) < 2 {
			return fmt.Errorf("netlist: line %d: .output needs at least one node", no)
		}
		d.outputs = append(d.outputs, fields[1:]...)
		return nil
	case cardEnd:
		return nil
	case cardR:
		if len(fields) != 4 {
			return fmt.Errorf("netlist: line %d: resistor card needs 'Rname a b value'", no)
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		return d.addEdge(fields, no, v, 0, false)
	case cardC:
		if len(fields) != 4 {
			return fmt.Errorf("netlist: line %d: capacitor card needs 'Cname node 0 value'", no)
		}
		node, gnd := fields[1], fields[2]
		if isGround(node) {
			node, gnd = gnd, node
		}
		if !isGround(gnd) {
			return fmt.Errorf("netlist: line %d: capacitor %s must connect to ground (node 0)", no, fields[0])
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		if v < 0 {
			return fmt.Errorf("netlist: line %d: negative capacitance %g", no, v)
		}
		if err := d.define(fields[0], no); err != nil {
			return err
		}
		id := d.intern(node)
		d.caps[id] += v
		if d.capLine[id] == 0 {
			d.capLine[id] = no
			d.capNodes = append(d.capNodes, id)
		}
		return nil
	case cardU:
		if len(fields) != 5 {
			return fmt.Errorf("netlist: line %d: line card needs 'Uname a b Rvalue Cvalue'", no)
		}
		r, err := ParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		c, err := ParseValue(fields[4])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		return d.addEdge(fields, no, r, c, true)
	}
	return fmt.Errorf("netlist: line %d: unrecognized card %q", no, fields[0])
}

// define records element name at line no, rejecting a name (compared case
// insensitively) that an earlier card already defined.
func (d *deck) define(name string, no int) error {
	key := strings.ToUpper(name)
	if prev, dup := d.seen[key]; dup {
		return fmt.Errorf("netlist: line %d: element %s already defined at line %d", no, name, prev)
	}
	d.seen[key] = no
	return nil
}

// addEdge adds the R or U card fields (name a b ...) with values r and c.
func (d *deck) addEdge(fields []string, no int, r, c float64, isLine bool) error {
	name, a, b := fields[0], fields[1], fields[2]
	if err := d.define(name, no); err != nil {
		return err
	}
	if isGround(a) || isGround(b) {
		return fmt.Errorf("netlist: line %d: element %s connects to ground; RC trees have no resistor to ground", no, name)
	}
	if a == b {
		return fmt.Errorf("netlist: line %d: element %s is a self-loop on %q", no, name, a)
	}
	if r < 0 || c < 0 {
		return fmt.Errorf("netlist: line %d: element %s has a negative value", no, name)
	}
	d.edges = append(d.edges, edge{name: name, a: d.intern(a), b: d.intern(b), r: r, c: c, isLine: isLine, line: no})
	return nil
}

func isGround(node string) bool {
	return node == "0" || strings.EqualFold(node, "gnd")
}

// build orients the element graph from the input node and assembles the
// tree in breadth-first order (the builder requires parent-before-child).
// Each node's edges are visited in declaration order, which fixes the node
// ids, the children order and so every downstream summation order.
func (d *deck) build() (*rctree.Tree, error) {
	input := d.input
	if input == "" {
		input = "in"
	}
	if len(d.edges) == 0 {
		// A deck can legitimately degenerate to capacitance at the driven
		// input alone (e.g. a zero-resistance U card folded into its
		// parent); the response is then an immediate step.
		return d.buildCapacitorOnly(input)
	}
	in := d.intern(input)
	n := len(d.names)

	// Adjacency in CSR form, each node's edges in declaration order.
	off := resize(d.adjOff, n+1)
	clear(off)
	for _, e := range d.edges {
		off[e.a+1]++
		off[e.b+1]++
	}
	for x := 1; x <= n; x++ {
		off[x] += off[x-1]
	}
	adj := resize(d.adj, int(off[n]))
	for i, e := range d.edges {
		adj[off[e.a]] = int32(i)
		off[e.a]++
		adj[off[e.b]] = int32(i)
		off[e.b]++
	}
	copy(off[1:], off[:n]) // each off[x] now ends node x; shift back to starts
	off[0] = 0
	d.adjOff, d.adj = off, adj
	if off[in] == off[in+1] {
		return nil, fmt.Errorf("netlist: input node %q touches no element", input)
	}

	b := rctree.NewBuilder(input)
	b.Grow(n - 1)
	tree := resize(d.tree, n)
	for x := range tree {
		tree[x] = -1
	}
	tree[in] = rctree.Root
	used := resize(d.used, len(d.edges))
	clear(used)
	queue := append(d.queue[:0], in)
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		for _, ei := range adj[off[cur]:off[cur+1]] {
			if used[ei] {
				continue
			}
			e := &d.edges[ei]
			used[ei] = true
			far := e.b
			if far == cur {
				far = e.a
			}
			if tree[far] >= 0 {
				return nil, fmt.Errorf("netlist: line %d: element %s closes a resistive loop at node %q; the network is not a tree", e.line, e.name, d.names[far])
			}
			if e.isLine {
				tree[far] = b.Line(tree[cur], d.names[far], e.r, e.c)
			} else {
				tree[far] = b.Resistor(tree[cur], d.names[far], e.r)
			}
			queue = append(queue, far)
		}
	}
	d.tree, d.used, d.queue = tree, used, queue
	for i, ok := range used {
		if !ok {
			e := &d.edges[i]
			return nil, fmt.Errorf("netlist: line %d: element %s (%s-%s) is disconnected from the input", e.line, e.name, d.names[e.a], d.names[e.b])
		}
	}
	for _, x := range d.capNodes {
		if tree[x] < 0 {
			return nil, d.floatingCap(x)
		}
		b.Capacitor(tree[x], d.caps[x])
	}
	for _, out := range d.outputs {
		x, ok := d.ids[out]
		if !ok || tree[x] < 0 {
			return nil, fmt.Errorf("netlist: .output node %q does not exist", out)
		}
		b.Output(tree[x])
	}
	return b.Build()
}

// buildCapacitorOnly handles decks whose only elements are capacitors: they
// must all sit at the input node (anything else is floating), and the
// result is the single-node tree.
func (d *deck) buildCapacitorOnly(input string) (*rctree.Tree, error) {
	if len(d.capNodes) == 0 {
		return nil, fmt.Errorf("netlist: deck has no elements")
	}
	b := rctree.NewBuilder(input)
	for _, x := range d.capNodes {
		if d.names[x] != input {
			return nil, d.floatingCap(x)
		}
		b.Capacitor(rctree.Root, d.caps[x])
	}
	for _, out := range d.outputs {
		if out != input {
			return nil, fmt.Errorf("netlist: .output node %q does not exist", out)
		}
		b.Output(rctree.Root)
	}
	return b.Build()
}

func (d *deck) floatingCap(x int32) error {
	return fmt.Errorf("netlist: line %d: capacitor node %q is not connected to the tree", d.capLine[x], d.names[x])
}

// resize returns s with length n, reusing its array when it is big enough.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ParseValue parses a SPICE-style number with optional engineering suffix:
// f=1e-15, p=1e-12, n=1e-9, u=1e-6, m=1e-3, k=1e3, meg=1e6, g=1e9.
func ParseValue(s string) (float64, error) {
	// Fast path: a token ending in a digit or '.' has no suffix, and any
	// number strconv accepts is ASCII, where lower-casing changes nothing.
	if t := strings.TrimSpace(s); t != "" {
		if c := t[len(t)-1]; '0' <= c && c <= '9' || c == '.' {
			if v, err := strconv.ParseFloat(t, 64); err == nil {
				return finite(v, s)
			}
		}
	}
	low := strings.ToLower(strings.TrimSpace(s))
	mult := 1.0
	switch {
	case strings.HasSuffix(low, "meg"):
		mult, low = 1e6, strings.TrimSuffix(low, "meg")
	case strings.HasSuffix(low, "f"):
		mult, low = 1e-15, strings.TrimSuffix(low, "f")
	case strings.HasSuffix(low, "p"):
		mult, low = 1e-12, strings.TrimSuffix(low, "p")
	case strings.HasSuffix(low, "n"):
		mult, low = 1e-9, strings.TrimSuffix(low, "n")
	case strings.HasSuffix(low, "u"):
		mult, low = 1e-6, strings.TrimSuffix(low, "u")
	case strings.HasSuffix(low, "m"):
		mult, low = 1e-3, strings.TrimSuffix(low, "m")
	case strings.HasSuffix(low, "k"):
		mult, low = 1e3, strings.TrimSuffix(low, "k")
	case strings.HasSuffix(low, "g"):
		mult, low = 1e9, strings.TrimSuffix(low, "g")
	}
	v, err := strconv.ParseFloat(low, 64)
	if err != nil {
		return 0, fmt.Errorf("netlist: bad value %q", s)
	}
	return finite(v*mult, s)
}

// finite rejects a non-finite value: ParseFloat accepts "infinity" and huge
// exponents, and such an element value can never round-trip through Write.
func finite(v float64, s string) (float64, error) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("netlist: non-finite value %q", s)
	}
	return v, nil
}

// Write renders a tree back into deck form. Values print in plain notation;
// the result round-trips through Parse.
func Write(t *rctree.Tree) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "* RC tree: %d nodes\n", t.NumNodes())
	fmt.Fprintf(&sb, ".input %s\n", t.Name(rctree.Root))
	rCount, uCount, cCount := 0, 0, 0
	t.Walk(func(id rctree.NodeID) {
		if id == rctree.Root {
			if c := t.NodeCap(id); c > 0 {
				cCount++
				fmt.Fprintf(&sb, "C%d %s 0 %s\n", cCount, t.Name(id), fmtVal(c))
			}
			return
		}
		kind, r, c := t.Edge(id)
		parent := t.Name(t.Parent(id))
		switch kind {
		case rctree.EdgeResistor:
			rCount++
			fmt.Fprintf(&sb, "R%d %s %s %s\n", rCount, parent, t.Name(id), fmtVal(r))
		case rctree.EdgeLine:
			uCount++
			fmt.Fprintf(&sb, "U%d %s %s %s %s\n", uCount, parent, t.Name(id), fmtVal(r), fmtVal(c))
		}
		if nc := t.NodeCap(id); nc > 0 {
			cCount++
			fmt.Fprintf(&sb, "C%d %s 0 %s\n", cCount, t.Name(id), fmtVal(nc))
		}
	})
	outs := make([]string, 0, len(t.Outputs()))
	for _, o := range t.Outputs() {
		outs = append(outs, t.Name(o))
	}
	sort.Strings(outs)
	for _, o := range outs {
		fmt.Fprintf(&sb, ".output %s\n", o)
	}
	sb.WriteString(".end\n")
	return sb.String()
}

func fmtVal(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
