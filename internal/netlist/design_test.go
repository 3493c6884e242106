package netlist

import (
	"strings"
	"testing"
)

const demoDesign = `
* two inverter stages driving a fanout net
.design demo
.net drv
.input in
R1 in o 10
C1 o 0 5
.output o
.endnet
.net load
.input in
R1 in a 20
C1 a 0 3
R2 a b 5
C2 b 0 2
.output a b
.endnet
.stage drv o load 3.5
.require load a 400
.require load b 500
.end
`

func TestParseDesign(t *testing.T) {
	d, err := ParseDesign(demoDesign)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "demo" {
		t.Errorf("Name = %q", d.Name)
	}
	if len(d.Nets) != 2 || d.Nets[0].Name != "drv" || d.Nets[1].Name != "load" {
		t.Fatalf("nets = %+v", d.Nets)
	}
	if d.Net("drv") == nil || d.Net("load") == nil || d.Net("ghost") != nil {
		t.Error("Net lookup wrong")
	}
	if d.Nets[1].Tree.NumNodes() != 3 {
		t.Errorf("load nodes = %d", d.Nets[1].Tree.NumNodes())
	}
	if len(d.Stages) != 1 {
		t.Fatalf("stages = %+v", d.Stages)
	}
	s := d.Stages[0]
	if s.FromNet != "drv" || s.FromOutput != "o" || s.ToNet != "load" || s.Delay != 3.5 {
		t.Errorf("stage = %+v", s)
	}
	if len(d.Requires) != 2 || d.Requires[0].Time != 400 || d.Requires[1].Time != 500 {
		t.Errorf("requires = %+v", d.Requires)
	}
}

func TestParseDesignValueSuffixes(t *testing.T) {
	d, err := ParseDesign(`
.net a
R1 in o 1k
C1 o 0 2p
.output o
.endnet
.net b
R1 in o 1
C1 o 0 1
.output o
.endnet
.stage a o b 2n
.require b o 1u
`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Stages[0].Delay != 2e-9 {
		t.Errorf("delay = %g", d.Stages[0].Delay)
	}
	if d.Requires[0].Time != 1e-6 {
		t.Errorf("require = %g", d.Requires[0].Time)
	}
}

func TestParseDesignErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no nets", ".end\n", "no nets"},
		{"unterminated net", ".net a\nR1 in o 1\n", "missing its .endnet"},
		{"nested net", ".net a\n.net b\n", ".net inside net"},
		{"stray endnet", ".endnet\n", ".endnet without .net"},
		{"dup net", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n", "already defined"},
		{"bad inner deck", ".net a\ngarbage\n.endnet\n", "unrecognized card"},
		{"bad stage arity", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage a o\n", "stage card needs"},
		{"negative delay", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage a o a -1\n", "negative stage delay"},
		{"unknown from net", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage x o a 1\n", "unknown net"},
		{"unknown to net", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage a o x 1\n", "unknown net"},
		{"stage non-output", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.stage a in a 1\n", "not a designated output"},
		{"require unknown net", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.require x o 1\n", "unknown net"},
		{"require non-output", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.require a in 1\n", "not a designated output"},
		{"bad require arity", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.require a o\n", "require card needs"},
		{"dup design name", ".design x\n.design y\n", "duplicate .design"},
		{"element at top level", "R1 in o 1\n", "unrecognized design card"},
		{"infinite require", ".net a\nR1 in o 1\nC1 o 0 1\n.output o\n.endnet\n.require a o infinity\n", "non-finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDesign(tc.src)
			if err == nil {
				t.Fatalf("accepted:\n%s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestWriteDesignRoundTrip(t *testing.T) {
	d, err := ParseDesign(demoDesign)
	if err != nil {
		t.Fatal(err)
	}
	deck := WriteDesign(d)
	back, err := ParseDesign(deck)
	if err != nil {
		t.Fatalf("written deck rejected: %v\n%s", err, deck)
	}
	if back.Name != d.Name || len(back.Nets) != len(d.Nets) ||
		len(back.Stages) != len(d.Stages) || len(back.Requires) != len(d.Requires) {
		t.Fatalf("round trip changed shape: %+v vs %+v", back, d)
	}
	for i := range d.Nets {
		if back.Nets[i].Name != d.Nets[i].Name {
			t.Errorf("net %d name %q -> %q", i, d.Nets[i].Name, back.Nets[i].Name)
		}
		if back.Nets[i].Tree.NumNodes() != d.Nets[i].Tree.NumNodes() {
			t.Errorf("net %q node count changed", d.Nets[i].Name)
		}
	}
	if back.Stages[0] != d.Stages[0] {
		t.Errorf("stage changed: %+v -> %+v", d.Stages[0], back.Stages[0])
	}
	// Writing the reparse must be byte-identical: the writer is canonical.
	if again := WriteDesign(back); again != deck {
		t.Errorf("writer not canonical:\n%s\nvs\n%s", deck, again)
	}
}

// TestParseDesignErrorLines pins the line an error inside a net cites: its
// line in the whole deck, counting the comments and blank lines before it.
func TestParseDesignErrorLines(t *testing.T) {
	const head = ".design d\n" + // 1
		".net a\n" + // 2
		"* leading comment\n" + // 3
		"\n" + // 4
		".input in\n" + // 5
		"R1 in o 1\n" + // 6
		"; comment only\n" + // 7
		"C1 o 0 1\n" // 8
	cases := []struct {
		name, src, want string
	}{
		{"bad card", head + "R2 o p\n.endnet\n",
			`netlist: design net "a" (line 2): netlist: line 9: resistor card needs 'Rname a b value'`},
		{"duplicate element", head + "\n\nC1 p 0 1\n.endnet\n",
			`netlist: design net "a" (line 2): netlist: line 11: element C1 already defined at line 8`},
		{"loop", head + "R2 o p 1\n   \nR3 p in 1\n.endnet\n",
			`netlist: design net "a" (line 2): netlist: line 9: element R2 closes a resistive loop at node "p"; the network is not a tree`},
		{"floating cap", head + "C2 q 0 1\n.output o\n.endnet\n",
			`netlist: design net "a" (line 2): netlist: line 9: capacitor node "q" is not connected to the tree`},
		{"second net", head + ".output o\n.endnet\n* between\n.net b\n\nX1 in o 1\n.endnet\n",
			`netlist: design net "b" (line 12): netlist: line 14: unrecognized card "X1"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDesign(tc.src)
			if err == nil || err.Error() != tc.want {
				t.Errorf("error %v\nwant  %s", err, tc.want)
			}
		})
	}
}
