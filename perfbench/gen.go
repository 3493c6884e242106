package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	rcdelay "repro"
)

// Inputs are generated here, from the workload seed alone, as deck text and
// request bodies: the program under test receives only these bytes, so a
// change to the repository's own generators can never move the benchmark's
// inputs.

// treeShape configures one generated RC tree (the randnet default mix).
type treeShape struct {
	nodes      int
	lineProb   float64
	capProb    float64
	chain      float64
	rMax, cMax float64
}

// designShape configures one generated layered design: levels × width nets,
// each net beyond level 0 driven by 1..faninMax stage edges from random
// outputs of random previous-level nets.
type designShape struct {
	levels, width int
	net           treeShape
	faninMax      int
	delayMax      float64
}

func defaultTree(nodes int) treeShape {
	return treeShape{nodes: nodes, lineProb: 0.4, capProb: 0.7, chain: 0.5, rMax: 100, cMax: 10}
}

var (
	// signoffShape is the batch signoff design: 20 levels × 100 nets of
	// 40-node trees (about 4.9 MB of deck, about 25k endpoints).
	signoffShape = designShape{levels: 20, width: 100, net: defaultTree(40), faninMax: 2, delayMax: 10}
	// serveShape is the interactive design: 6 levels × 40 nets of 20-node
	// trees (about 300 KB of deck, about 1.4k endpoints).
	serveShape = designShape{levels: 6, width: 40, net: defaultTree(20), faninMax: 2, delayMax: 10}
)

func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func netName(level, j int) string { return fmt.Sprintf("l%dn%d", level, j) }

// writeTree appends one net section: nodes n1..nN attached to "in" or an
// earlier node, every leaf designated an output. It returns the leaf names.
func writeTree(sb *strings.Builder, rng *rand.Rand, name string, cfg treeShape) []string {
	fmt.Fprintf(sb, ".net %s\n.input in\n", name)
	names := []string{"in"}
	hasChild := make([]bool, cfg.nodes+1)
	placedCap := false
	for i := 1; i <= cfg.nodes; i++ {
		var parent int
		if rng.Float64() < cfg.chain {
			parent = len(names) - 1
		} else {
			parent = rng.Intn(len(names))
		}
		hasChild[parent] = true
		node := "n" + strconv.Itoa(i)
		r := rng.Float64()*cfg.rMax + 1e-3
		if rng.Float64() < cfg.lineProb {
			c := rng.Float64()*cfg.cMax + 1e-6
			fmt.Fprintf(sb, "U%d %s %s %s %s\n", i, names[parent], node, fmtVal(r), fmtVal(c))
			placedCap = true
		} else {
			fmt.Fprintf(sb, "R%d %s %s %s\n", i, names[parent], node, fmtVal(r))
		}
		if rng.Float64() < cfg.capProb {
			fmt.Fprintf(sb, "C%d %s 0 %s\n", i, node, fmtVal(rng.Float64()*cfg.cMax+1e-6))
			placedCap = true
		}
		names = append(names, node)
	}
	if !placedCap {
		fmt.Fprintf(sb, "C0 %s 0 %s\n", names[cfg.nodes], fmtVal(rng.Float64()*cfg.cMax+1e-6))
	}
	var leaves []string
	for i := 1; i <= cfg.nodes; i++ {
		if !hasChild[i] {
			leaves = append(leaves, names[i])
		}
	}
	for _, l := range leaves {
		fmt.Fprintf(sb, ".output %s\n", l)
	}
	sb.WriteString(".endnet\n")
	return leaves
}

// genDeck renders a random layered design deck from seed.
func genDeck(seed int64, name string, cfg designShape) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	fmt.Fprintf(&sb, ".design %s\n", name)
	leaves := make([][][]string, cfg.levels)
	var stages strings.Builder
	for level := 0; level < cfg.levels; level++ {
		leaves[level] = make([][]string, cfg.width)
		for j := 0; j < cfg.width; j++ {
			leaves[level][j] = writeTree(&sb, rng, netName(level, j), cfg.net)
			if level == 0 {
				continue
			}
			fanin := 1 + rng.Intn(cfg.faninMax)
			for k := 0; k < fanin; k++ {
				src := rng.Intn(cfg.width)
				outs := leaves[level-1][src]
				out := outs[rng.Intn(len(outs))]
				delay := (1 - rng.Float64()) * cfg.delayMax
				fmt.Fprintf(&stages, ".stage %s %s %s %s\n", netName(level-1, src), out, netName(level, j), fmtVal(delay))
			}
		}
	}
	sb.WriteString(stages.String())
	sb.WriteString(".end\n")
	return sb.String()
}

// arrivalQuantile analyzes deck unconstrained and returns the q-quantile of
// its endpoints' latest arrivals (q = 1 is the worst arrival) — the scale
// required times are set against.
func arrivalQuantile(deck string, threshold, q float64) (float64, error) {
	d, err := rcdelay.ParseDesign(deck)
	if err != nil {
		return 0, err
	}
	rep, err := rcdelay.AnalyzeDesign(bg, d, rcdelay.DesignOptions{Threshold: threshold, K: -1, Sequential: true})
	if err != nil {
		return 0, err
	}
	arrivals := make([]float64, len(rep.Endpoints))
	for i, e := range rep.Endpoints {
		arrivals[i] = e.Arrival.Max
	}
	sort.Float64s(arrivals)
	a := quantile(arrivals, q)
	if !(a > 0) {
		return 0, fmt.Errorf("design has no positive arrival")
	}
	return a, nil
}

// editScript is one client's endless, seeded stream of eco_serve requests.
type editScript struct {
	rng   *rand.Rand
	shape designShape
}

func newEditScript(seed int64, client int, shape designShape) *editScript {
	return &editScript{rng: rand.New(rand.NewSource(seed*1000003 + int64(client) + 17)), shape: shape}
}

// ecoOp is one scripted request: kind is "edit", "slack" or "info"; design
// indexes the client's own designs; edits is set for "edit".
type ecoOp struct {
	kind   string
	design int
	edits  []rcdelay.DesignEdit
}

// next draws the next request: about 70% edit batches of 1–4 setR/setC/addC
// edits on uniformly drawn nets and nodes, 25% slack reads, 5% info reads.
func (s *editScript) next(designs int) ecoOp {
	op := ecoOp{design: s.rng.Intn(designs)}
	switch p := s.rng.Float64(); {
	case p < 0.70:
		op.kind = "edit"
		n := 1 + s.rng.Intn(4)
		for i := 0; i < n; i++ {
			op.edits = append(op.edits, s.edit())
		}
	case p < 0.95:
		op.kind = "slack"
	default:
		op.kind = "info"
	}
	return op
}

func (s *editScript) edit() rcdelay.DesignEdit {
	sh := s.shape
	e := rcdelay.DesignEdit{
		Net:  netName(s.rng.Intn(sh.levels), s.rng.Intn(sh.width)),
		Node: "n" + strconv.Itoa(1+s.rng.Intn(sh.net.nodes)),
	}
	switch s.rng.Intn(3) {
	case 0:
		e.Op = "setR"
		r := s.rng.Float64()*sh.net.rMax + 1e-3
		e.R = &r
	case 1:
		e.Op = "setC"
		c := s.rng.Float64()*sh.net.cMax + 1e-6
		e.C = &c
	default:
		// Small increments, so the node values that setC resets stay
		// near the generated distribution.
		e.Op = "addC"
		c := s.rng.Float64()*sh.net.cMax/10 + 1e-6
		e.C = &c
	}
	return e
}

// editBody renders an edit batch as the POST /design/{id}/edit body.
func editBody(edits []rcdelay.DesignEdit) []byte {
	b, err := json.Marshal(map[string]any{"edits": edits})
	if err != nil {
		panic(err) // plain structs of strings and finite floats always marshal
	}
	return b
}
