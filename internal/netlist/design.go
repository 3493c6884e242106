package netlist

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rctree"
)

// Design is the multi-deck form of a chip: named nets (each an RC tree in
// the usual deck format) plus stage edges gluing them into a timing graph.
// A stage "output X of net A drives the input of net B through a gate with
// intrinsic delay d" is the abstraction of a logic stage: the gate's input
// threshold crossing at A/X launches a fresh step into B's driver d time
// units later. Requires pin down required arrival times at endpoints.
//
// The deck grammar wraps each net in .net/.endnet and lists stages and
// requirements at top level:
//
//	.design demo
//	.net stage1
//	.input in
//	R1 in o 10
//	C1 o 0 5
//	.output o
//	.endnet
//	.net stage2
//	...
//	.endnet
//	.stage stage1 o stage2 3.5    ; A/X -> B, gate intrinsic delay 3.5
//	.require stage2 o 100         ; required arrival at endpoint stage2/o
//	.end
//
// Everything between .net and .endnet is an ordinary single-net deck, read
// with the same cards and checks as Parse; stage delays and require times
// accept SPICE suffixes. An error inside a net names the net and its .net
// line, and cites the offending card by its line in the whole deck.
type Design struct {
	// Name is the .design label, "" if absent.
	Name string
	// Nets holds the nets in declaration order.
	Nets []DesignNet
	// Stages holds the gate edges in declaration order.
	Stages []Stage
	// Requires holds the endpoint timing requirements in declaration order.
	Requires []Require
}

// DesignNet is one named RC tree of a Design.
type DesignNet struct {
	Name string
	Tree *rctree.Tree
}

// Stage is one gate edge: the named output of FromNet drives the input of
// ToNet through a gate with intrinsic delay Delay (same time units as the
// nets' RC products).
type Stage struct {
	FromNet    string
	FromOutput string
	ToNet      string
	Delay      float64
}

// Require is a required arrival time at one endpoint (net/output pair).
type Require struct {
	Net    string
	Output string
	Time   float64
}

// Net returns the named net, or nil.
func (d *Design) Net(name string) *DesignNet {
	for i := range d.Nets {
		if d.Nets[i].Name == name {
			return &d.Nets[i]
		}
	}
	return nil
}

// ParseDesign reads a multi-net design deck. Every stage and require is
// validated against the declared nets and their designated outputs, so a
// returned Design is structurally sound (cycles are only diagnosed when a
// timing graph is built from it).
func ParseDesign(src string) (*Design, error) {
	d := &Design{}
	s := scanner{src: src}
	var (
		net     deck   // the net being collected
		curName string // its name, "" at top level
		netLine int
		// netErr is the net's first bad card. It is held until .endnet,
		// so a nested .net or a missing .endnet is reported instead.
		netErr error
	)
	net.reset()
	index := map[string]int{} // net name -> index in d.Nets
	var netLines []int
	for s.next() {
		fields, no := s.fields, s.line
		k := classify(fields[0])
		if curName != "" {
			// Inside a net section: .endnet closes it, everything else is
			// one of the net's cards.
			switch k {
			case cardEndnet:
				var tree *rctree.Tree
				if netErr == nil {
					tree, netErr = net.build()
				}
				if netErr != nil {
					return nil, fmt.Errorf("netlist: design net %q (line %d): %w", curName, netLine, netErr)
				}
				d.Nets = append(d.Nets, DesignNet{Name: curName, Tree: tree})
				curName = ""
				net.reset()
			case cardNet:
				return nil, fmt.Errorf("netlist: line %d: .net inside net %q (missing .endnet)", no, curName)
			default:
				if netErr == nil {
					netErr = net.card(fields, no, k)
				}
			}
			continue
		}
		switch k {
		case cardDesign:
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: .design takes exactly one name", no)
			}
			if d.Name != "" {
				return nil, fmt.Errorf("netlist: line %d: duplicate .design (already %q)", no, d.Name)
			}
			d.Name = fields[1]
		case cardNet:
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: .net takes exactly one name", no)
			}
			if prev, dup := index[fields[1]]; dup {
				return nil, fmt.Errorf("netlist: line %d: net %q already defined at line %d", no, fields[1], netLines[prev])
			}
			index[fields[1]] = len(netLines)
			netLines = append(netLines, no)
			curName, netLine = fields[1], no
		case cardEndnet:
			return nil, fmt.Errorf("netlist: line %d: .endnet without .net", no)
		case cardStage:
			if len(fields) != 5 {
				return nil, fmt.Errorf("netlist: line %d: stage card needs '.stage fromNet output toNet delay'", no)
			}
			delay, err := ParseValue(fields[4])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", no, err)
			}
			if delay < 0 {
				return nil, fmt.Errorf("netlist: line %d: negative stage delay %g", no, delay)
			}
			d.Stages = append(d.Stages, Stage{
				FromNet: fields[1], FromOutput: fields[2], ToNet: fields[3], Delay: delay,
			})
		case cardRequire:
			if len(fields) != 4 {
				return nil, fmt.Errorf("netlist: line %d: require card needs '.require net output time'", no)
			}
			t, err := ParseValue(fields[3])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", no, err)
			}
			d.Requires = append(d.Requires, Require{Net: fields[1], Output: fields[2], Time: t})
		case cardEnd:
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
	if err := d.validate(index); err != nil {
		return nil, err
	}
	return d, nil
}

// validate resolves every stage and require against the declared nets,
// looked up through index (net name -> index in d.Nets).
func (d *Design) validate(index map[string]int) error {
	for i, s := range d.Stages {
		from, ok := index[s.FromNet]
		if !ok {
			return fmt.Errorf("netlist: stage %d references unknown net %q", i+1, s.FromNet)
		}
		if _, ok := index[s.ToNet]; !ok {
			return fmt.Errorf("netlist: stage %d references unknown net %q", i+1, s.ToNet)
		}
		if !hasOutput(d.Nets[from].Tree, s.FromOutput) {
			return fmt.Errorf("netlist: stage %d: %q is not a designated output of net %q", i+1, s.FromOutput, s.FromNet)
		}
	}
	for i, r := range d.Requires {
		net, ok := index[r.Net]
		if !ok {
			return fmt.Errorf("netlist: require %d references unknown net %q", i+1, r.Net)
		}
		if !hasOutput(d.Nets[net].Tree, r.Output) {
			return fmt.Errorf("netlist: require %d: %q is not a designated output of net %q", i+1, r.Output, r.Net)
		}
	}
	return nil
}

func hasOutput(t *rctree.Tree, name string) bool {
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

// WriteDesign renders a design back into deck form; the result round-trips
// through ParseDesign. Nets keep declaration order; stages and requires are
// emitted sorted for a canonical form.
func WriteDesign(d *Design) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "* design: %d nets, %d stages\n", len(d.Nets), len(d.Stages))
	if d.Name != "" {
		fmt.Fprintf(&sb, ".design %s\n", d.Name)
	}
	for _, n := range d.Nets {
		fmt.Fprintf(&sb, ".net %s\n", n.Name)
		sb.WriteString(Write(n.Tree))
		sb.WriteString(".endnet\n")
	}
	for _, s := range canonicalStages(d.Stages) {
		fmt.Fprintf(&sb, ".stage %s %s %s %s\n", s.FromNet, s.FromOutput, s.ToNet, fmtVal(s.Delay))
	}
	requires := append([]Require(nil), d.Requires...)
	sort.SliceStable(requires, func(i, j int) bool {
		if requires[i].Net != requires[j].Net {
			return requires[i].Net < requires[j].Net
		}
		return requires[i].Output < requires[j].Output
	})
	for _, r := range requires {
		fmt.Fprintf(&sb, ".require %s %s %s\n", r.Net, r.Output, fmtVal(r.Time))
	}
	sb.WriteString(".end\n")
	return sb.String()
}

// canonicalStages returns the stages in the deterministic order WriteDesign
// emits them.
func canonicalStages(stages []Stage) []Stage {
	out := append([]Stage(nil), stages...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].FromNet != out[j].FromNet {
			return out[i].FromNet < out[j].FromNet
		}
		if out[i].FromOutput != out[j].FromOutput {
			return out[i].FromOutput < out[j].FromOutput
		}
		return out[i].ToNet < out[j].ToNet
	})
	return out
}
