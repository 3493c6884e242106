package netlist

// The parser as it stood before the single-pass rewrite, kept as a
// differential oracle: the fuzz targets in oracle_ext_test.go feed the same
// input to both and require identical trees and identical error text. It
// differs from the original in two deliberate ways only: errors inside a
// design net cite absolute deck lines, and capacitors are visited in order
// of their first source line rather than in map order.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rctree"
)

// edge is a two-terminal element between tree nodes, pre-orientation.
type oracleEdge struct {
	name   string
	a, b   string
	r, c   float64
	isLine bool
	line   int
}

type oracleDeck struct {
	edges   []oracleEdge
	caps    map[string]float64 // node -> summed capacitance to ground
	capLine map[string]int
	input   string
	outputs []string
	seen    map[string]int // element name -> source line
}

// oracleParse reads a deck and returns the RC tree it describes. base is
// the source line just before src's first line, so errors cite absolute
// deck lines.
func oracleParse(src string, base int) (*rctree.Tree, error) {
	d := &oracleDeck{caps: map[string]float64{}, capLine: map[string]int{}, seen: map[string]int{}}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		if err := d.card(line, base+lineNo+1); err != nil {
			return nil, err
		}
	}
	return d.build()
}

func (d *oracleDeck) card(line string, no int) error {
	fields := strings.Fields(line)
	head := strings.ToUpper(fields[0])
	switch {
	case head == ".INPUT":
		if len(fields) != 2 {
			return fmt.Errorf("netlist: line %d: .input takes exactly one node", no)
		}
		if d.input != "" {
			return fmt.Errorf("netlist: line %d: duplicate .input (already %q)", no, d.input)
		}
		d.input = fields[1]
		return nil
	case head == ".OUTPUT":
		if len(fields) < 2 {
			return fmt.Errorf("netlist: line %d: .output needs at least one node", no)
		}
		d.outputs = append(d.outputs, fields[1:]...)
		return nil
	case head == ".END":
		return nil
	case strings.HasPrefix(head, "R"):
		if len(fields) != 4 {
			return fmt.Errorf("netlist: line %d: resistor card needs 'Rname a b value'", no)
		}
		v, err := oracleParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		return d.addEdge(oracleEdge{name: fields[0], a: fields[1], b: fields[2], r: v, line: no})
	case strings.HasPrefix(head, "C"):
		if len(fields) != 4 {
			return fmt.Errorf("netlist: line %d: capacitor card needs 'Cname node 0 value'", no)
		}
		node, gnd := fields[1], fields[2]
		if oracleIsGround(node) {
			node, gnd = gnd, node
		}
		if !oracleIsGround(gnd) {
			return fmt.Errorf("netlist: line %d: capacitor %s must connect to ground (node 0)", no, fields[0])
		}
		v, err := oracleParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		if v < 0 {
			return fmt.Errorf("netlist: line %d: negative capacitance %g", no, v)
		}
		if prev, dup := d.seen[strings.ToUpper(fields[0])]; dup {
			return fmt.Errorf("netlist: line %d: element %s already defined at line %d", no, fields[0], prev)
		}
		d.seen[strings.ToUpper(fields[0])] = no
		d.caps[node] += v
		if _, ok := d.capLine[node]; !ok {
			d.capLine[node] = no
		}
		return nil
	case strings.HasPrefix(head, "U"):
		if len(fields) != 5 {
			return fmt.Errorf("netlist: line %d: line card needs 'Uname a b Rvalue Cvalue'", no)
		}
		r, err := oracleParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		c, err := oracleParseValue(fields[4])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", no, err)
		}
		return d.addEdge(oracleEdge{name: fields[0], a: fields[1], b: fields[2], r: r, c: c, isLine: true, line: no})
	}
	return fmt.Errorf("netlist: line %d: unrecognized card %q", no, fields[0])
}

func (d *oracleDeck) addEdge(e oracleEdge) error {
	key := strings.ToUpper(e.name)
	if prev, dup := d.seen[key]; dup {
		return fmt.Errorf("netlist: line %d: element %s already defined at line %d", e.line, e.name, prev)
	}
	d.seen[key] = e.line
	if oracleIsGround(e.a) || oracleIsGround(e.b) {
		return fmt.Errorf("netlist: line %d: element %s connects to ground; RC trees have no resistor to ground", e.line, e.name)
	}
	if e.a == e.b {
		return fmt.Errorf("netlist: line %d: element %s is a self-loop on %q", e.line, e.name, e.a)
	}
	if e.r < 0 || e.c < 0 {
		return fmt.Errorf("netlist: line %d: element %s has a negative value", e.line, e.name)
	}
	d.edges = append(d.edges, e)
	return nil
}

func oracleIsGround(node string) bool {
	return node == "0" || strings.EqualFold(node, "gnd")
}

// build orients the element graph from the input node and assembles the
// tree in breadth-first order (the builder requires parent-before-child).
func (d *oracleDeck) build() (*rctree.Tree, error) {
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
	adj := map[string][]int{}
	nodes := map[string]bool{input: true}
	for i, e := range d.edges {
		adj[e.a] = append(adj[e.a], i)
		adj[e.b] = append(adj[e.b], i)
		nodes[e.a] = true
		nodes[e.b] = true
	}
	if len(adj[input]) == 0 {
		return nil, fmt.Errorf("netlist: input node %q touches no element", input)
	}

	b := rctree.NewBuilder(input)
	ids := map[string]rctree.NodeID{input: rctree.Root}
	usedEdge := make([]bool, len(d.edges))
	queue := []string{input}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ei := range adj[cur] {
			if usedEdge[ei] {
				continue
			}
			e := d.edges[ei]
			usedEdge[ei] = true
			far := e.b
			if far == cur {
				far = e.a
			}
			if _, visited := ids[far]; visited {
				return nil, fmt.Errorf("netlist: line %d: element %s closes a resistive loop at node %q; the network is not a tree", e.line, e.name, far)
			}
			var id rctree.NodeID
			if e.isLine {
				id = b.Line(ids[cur], far, e.r, e.c)
			} else {
				id = b.Resistor(ids[cur], far, e.r)
			}
			ids[far] = id
			queue = append(queue, far)
		}
	}
	for i, used := range usedEdge {
		if !used {
			e := d.edges[i]
			return nil, fmt.Errorf("netlist: line %d: element %s (%s-%s) is disconnected from the input", e.line, e.name, e.a, e.b)
		}
	}
	for _, node := range d.capOrder() {
		c := d.caps[node]
		id, ok := ids[node]
		if !ok {
			return nil, fmt.Errorf("netlist: line %d: capacitor node %q is not connected to the tree", d.capLine[node], node)
		}
		b.Capacitor(id, c)
	}
	for _, out := range d.outputs {
		id, ok := ids[out]
		if !ok {
			return nil, fmt.Errorf("netlist: .output node %q does not exist", out)
		}
		b.Output(id)
	}
	return b.Build()
}

// buildCapacitorOnly handles decks whose only elements are capacitors: they
// must all sit at the input node (anything else is floating), and the
// result is the single-node tree.
func (d *oracleDeck) buildCapacitorOnly(input string) (*rctree.Tree, error) {
	if len(d.caps) == 0 {
		return nil, fmt.Errorf("netlist: deck has no elements")
	}
	b := rctree.NewBuilder(input)
	for _, node := range d.capOrder() {
		c := d.caps[node]
		if node != input {
			return nil, fmt.Errorf("netlist: line %d: capacitor node %q is not connected to the tree", d.capLine[node], node)
		}
		b.Capacitor(rctree.Root, c)
	}
	for _, out := range d.outputs {
		if out != input {
			return nil, fmt.Errorf("netlist: .output node %q does not exist", out)
		}
		b.Output(rctree.Root)
	}
	return b.Build()
}

// capOrder lists the capacitor nodes by the source line of their first
// capacitor, so the floating-capacitor error and the order capacitances
// reach the builder are deterministic.
func (d *oracleDeck) capOrder() []string {
	nodes := make([]string, 0, len(d.caps))
	for node := range d.caps {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool { return d.capLine[nodes[i]] < d.capLine[nodes[j]] })
	return nodes
}

// oracleParseValue parses a SPICE-style number with optional engineering suffix:
// f=1e-15, p=1e-12, n=1e-9, u=1e-6, m=1e-3, k=1e3, meg=1e6, g=1e9.
func oracleParseValue(s string) (float64, error) {
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
	v *= mult
	// ParseFloat accepts "infinity" and huge exponents; a non-finite element
	// value can never round-trip through Write, so reject it here.
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("netlist: non-finite value %q", s)
	}
	return v, nil
}

// oracleParseDesign reads a multi-net design deck. Every stage and require is
// validated against the declared nets and their designated outputs, so a
// returned Design is structurally sound (cycles are only diagnosed when a
// timing graph is built from it).
func oracleParseDesign(src string) (*Design, error) {
	d := &Design{}
	var (
		curName string // net being collected, "" at top level
		curDeck strings.Builder
		netLine int
	)
	seenNets := map[string]int{}
	finishNet := func() error {
		tree, err := oracleParse(curDeck.String(), netLine)
		if err != nil {
			return fmt.Errorf("netlist: design net %q (line %d): %w", curName, netLine, err)
		}
		d.Nets = append(d.Nets, DesignNet{Name: curName, Tree: tree})
		curName = ""
		curDeck.Reset()
		return nil
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		no := lineNo + 1
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "*") {
			if curName != "" {
				curDeck.WriteByte('\n') // keeps inner line numbers absolute
			}
			continue
		}
		fields := strings.Fields(line)
		head := strings.ToUpper(fields[0])
		if curName != "" {
			// Inside a net section: .endnet closes it, everything else is
			// deck content for the inner parser.
			if head == ".ENDNET" {
				if err := finishNet(); err != nil {
					return nil, err
				}
				continue
			}
			if head == ".NET" {
				return nil, fmt.Errorf("netlist: line %d: .net inside net %q (missing .endnet)", no, curName)
			}
			curDeck.WriteString(raw)
			curDeck.WriteByte('\n')
			continue
		}
		switch head {
		case ".DESIGN":
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: .design takes exactly one name", no)
			}
			if d.Name != "" {
				return nil, fmt.Errorf("netlist: line %d: duplicate .design (already %q)", no, d.Name)
			}
			d.Name = fields[1]
		case ".NET":
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: .net takes exactly one name", no)
			}
			if prev, dup := seenNets[fields[1]]; dup {
				return nil, fmt.Errorf("netlist: line %d: net %q already defined at line %d", no, fields[1], prev)
			}
			seenNets[fields[1]] = no
			curName, netLine = fields[1], no
		case ".ENDNET":
			return nil, fmt.Errorf("netlist: line %d: .endnet without .net", no)
		case ".STAGE":
			if len(fields) != 5 {
				return nil, fmt.Errorf("netlist: line %d: stage card needs '.stage fromNet output toNet delay'", no)
			}
			delay, err := oracleParseValue(fields[4])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", no, err)
			}
			if delay < 0 {
				return nil, fmt.Errorf("netlist: line %d: negative stage delay %g", no, delay)
			}
			d.Stages = append(d.Stages, Stage{
				FromNet: fields[1], FromOutput: fields[2], ToNet: fields[3], Delay: delay,
			})
		case ".REQUIRE":
			if len(fields) != 4 {
				return nil, fmt.Errorf("netlist: line %d: require card needs '.require net output time'", no)
			}
			t, err := oracleParseValue(fields[3])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", no, err)
			}
			d.Requires = append(d.Requires, Require{Net: fields[1], Output: fields[2], Time: t})
		case ".END":
			// terminator, accepted anywhere at top level
		default:
			return nil, fmt.Errorf("netlist: line %d: unrecognized design card %q (element cards belong inside .net/.endnet)", no, fields[0])
		}
	}
	if curName != "" {
		return nil, fmt.Errorf("netlist: net %q (line %d) is missing its .endnet", curName, netLine)
	}
	if len(d.Nets) == 0 {
		return nil, fmt.Errorf("netlist: design has no nets")
	}
	if err := oracleValidate(d); err != nil {
		return nil, err
	}
	return d, nil
}

// oracleValidate resolves every stage and require against the declared nets.
func oracleValidate(d *Design) error {
	for i, s := range d.Stages {
		from := d.Net(s.FromNet)
		if from == nil {
			return fmt.Errorf("netlist: stage %d references unknown net %q", i+1, s.FromNet)
		}
		if d.Net(s.ToNet) == nil {
			return fmt.Errorf("netlist: stage %d references unknown net %q", i+1, s.ToNet)
		}
		if !oracleHasOutput(from.Tree, s.FromOutput) {
			return fmt.Errorf("netlist: stage %d: %q is not a designated output of net %q", i+1, s.FromOutput, s.FromNet)
		}
	}
	for i, r := range d.Requires {
		net := d.Net(r.Net)
		if net == nil {
			return fmt.Errorf("netlist: require %d references unknown net %q", i+1, r.Net)
		}
		if !oracleHasOutput(net.Tree, r.Output) {
			return fmt.Errorf("netlist: require %d: %q is not a designated output of net %q", i+1, r.Output, r.Net)
		}
	}
	return nil
}

func oracleHasOutput(t *rctree.Tree, name string) bool {
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

// checkParseOracle parses src with Parse and with the oracle, and fails
// unless both reject it with the same error text or both accept it with
// node-for-node identical trees.
func checkParseOracle(t testing.TB, src string) {
	t.Helper()
	got, err := Parse(src)
	want, oerr := oracleParse(src, 0)
	if msg := errDiff(err, oerr); msg != "" {
		t.Fatalf("%s\ndeck:\n%s", msg, src)
	}
	if err == nil {
		if msg := treeDiff(got, want); msg != "" {
			t.Fatalf("%s\ndeck:\n%s", msg, src)
		}
	}
}

// checkParseDesignOracle is checkParseOracle for ParseDesign: on accept the
// name, every net's tree, the stages and the requires must match exactly.
func checkParseDesignOracle(t testing.TB, src string) {
	t.Helper()
	got, err := ParseDesign(src)
	want, oerr := oracleParseDesign(src)
	if msg := errDiff(err, oerr); msg != "" {
		t.Fatalf("%s\ndeck:\n%s", msg, src)
	}
	if err != nil {
		return
	}
	if got.Name != want.Name || len(got.Nets) != len(want.Nets) ||
		len(got.Stages) != len(want.Stages) || len(got.Requires) != len(want.Requires) {
		t.Fatalf("design shape differs: got %q %d/%d/%d, oracle %q %d/%d/%d\ndeck:\n%s",
			got.Name, len(got.Nets), len(got.Stages), len(got.Requires),
			want.Name, len(want.Nets), len(want.Stages), len(want.Requires), src)
	}
	for i := range want.Nets {
		if got.Nets[i].Name != want.Nets[i].Name {
			t.Fatalf("net %d: name %q, oracle %q", i, got.Nets[i].Name, want.Nets[i].Name)
		}
		if msg := treeDiff(got.Nets[i].Tree, want.Nets[i].Tree); msg != "" {
			t.Fatalf("net %q: %s\ndeck:\n%s", want.Nets[i].Name, msg, src)
		}
	}
	for i, w := range want.Stages {
		g := got.Stages[i]
		if g.FromNet != w.FromNet || g.FromOutput != w.FromOutput || g.ToNet != w.ToNet || !sameBits(g.Delay, w.Delay) {
			t.Fatalf("stage %d: %+v, oracle %+v", i, g, w)
		}
	}
	for i, w := range want.Requires {
		g := got.Requires[i]
		if g.Net != w.Net || g.Output != w.Output || !sameBits(g.Time, w.Time) {
			t.Fatalf("require %d: %+v, oracle %+v", i, g, w)
		}
	}
}

func errDiff(got, want error) string {
	switch {
	case got == nil && want == nil:
		return ""
	case got == nil:
		return fmt.Sprintf("accepted; oracle rejected: %v", want)
	case want == nil:
		return fmt.Sprintf("rejected (%v); oracle accepted", got)
	case got.Error() != want.Error():
		return fmt.Sprintf("error %q, oracle %q", got, want)
	}
	return ""
}

// treeDiff compares two trees node by node — name, parent, element kind and
// values, lumped capacitance, children order — and their output order.
// Values must match bit for bit.
func treeDiff(got, want *rctree.Tree) string {
	if got.NumNodes() != want.NumNodes() {
		return fmt.Sprintf("%d nodes, oracle %d", got.NumNodes(), want.NumNodes())
	}
	for i := 0; i < want.NumNodes(); i++ {
		id := rctree.NodeID(i)
		gk, gr, gc := got.Edge(id)
		wk, wr, wc := want.Edge(id)
		switch {
		case got.Name(id) != want.Name(id):
			return fmt.Sprintf("node %d named %q, oracle %q", i, got.Name(id), want.Name(id))
		case got.Parent(id) != want.Parent(id):
			return fmt.Sprintf("node %q parent %d, oracle %d", want.Name(id), got.Parent(id), want.Parent(id))
		case gk != wk || !sameBits(gr, wr) || !sameBits(gc, wc):
			return fmt.Sprintf("node %q edge %v R=%v C=%v, oracle %v R=%v C=%v", want.Name(id), gk, gr, gc, wk, wr, wc)
		case !sameBits(got.NodeCap(id), want.NodeCap(id)):
			return fmt.Sprintf("node %q cap %v, oracle %v", want.Name(id), got.NodeCap(id), want.NodeCap(id))
		case !slices.Equal(got.Children(id), want.Children(id)):
			return fmt.Sprintf("node %q children %v, oracle %v", want.Name(id), got.Children(id), want.Children(id))
		}
	}
	if !slices.Equal(got.Outputs(), want.Outputs()) {
		return fmt.Sprintf("outputs %v, oracle %v", got.Outputs(), want.Outputs())
	}
	return ""
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// oracleEdgeDecks are inputs where a hand-written scanner could drift from
// strings.Fields/ToUpper semantics, or where capacitance reaches one tree
// node under two names (a zero-resistance line folds its far end into its
// near end), so the summation order shows.
var oracleEdgeDecks = []string{
	".input a\r\nR1\ta b 1\r\nC1 b 0 2\r\n",
	".input a \nR1 a\u0085b 1 \nC1 b 0 2\n",
	".ınput a\nR1 a b 1\nC1 b 0 2\n",
	".INPUT A\nr1 A B 1\nc1 B gnd 2\nu1 B D 3 4\n.Output D B\n",
	"K1 in a 1\nC1 a 0 1\n",
	"ſ1 in a 1\n.ſtage\n",
	"R1 in a 1;R2 a b 1\n*R3 a c 1\n   * also a comment\nC1 a 0 1\n",
	"U1 in a 0 1\nC1 a 0 0.1\nC2 in 0 0.2\nU2 a b 1 0.3\nC3 a 0 0.4\n",
	"U1 in a 0 0.1\nU2 a b 0 0.1\nC1 b 0 0.1\nC2 a 0 0.1\nC3 in 0 0.2\n",
	"R1 in a 1\nC1 a 0 1\n.output a a\n",
	"R1 in a 0\nC1 a 0 1\n",
	"U1 in a 0 0\nC1 a 0 1\n",
	"R1 in a 1\nr1 a b 2\nC1 b 0 1\n",
	"C1 0 0 1\n.input 0\n",
	"C1 in 0 1\nC2 0 in 2\n.output in\n",
	".input a b\n",
	".end\nR1 in a 1k\nC1 a 0 1p\n.end\n",
}

// oracleEdgeDesigns are the design-level counterparts.
var oracleEdgeDesigns = []string{
	".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.end\n.endnet\n",
	".net a\nbad card\n.net b\n",
	".net a\nbad card\n",
	".net a\nR1 in o 1\n.design x\n.endnet\n",
	".NET a\nR1 in o 1\nC1 o 0 1\n.output o\n.EndNet extra\n.Stage a o a 1\n.rEqUiRe a o 2\n",
	".net a b\n",
	".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.net a\n.endnet\n",
	".net a\nU1 in o 0 1\nC1 o 0 1\nR1 in p 1\n.output p\n.endnet\n.stage a o a 1\n",
	".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.ınput x\n",
}

func TestParseOracleEdgeCases(t *testing.T) {
	for _, src := range oracleEdgeDecks {
		checkParseOracle(t, src)
		checkParseDesignOracle(t, ".net n\n"+src+"\n.endnet\n")
	}
	for _, src := range oracleEdgeDesigns {
		checkParseDesignOracle(t, src)
	}
}
