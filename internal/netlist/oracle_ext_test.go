package netlist_test

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/randnet"
)

// randDesignDeck renders a seeded random levels×width design as a deck.
func randDesignDeck(levels, width, nodes int) string {
	cfg := randnet.DefaultDesignConfig(levels, width)
	cfg.Net = randnet.DefaultConfig(nodes)
	return netlist.WriteDesign(randnet.DesignSeed(1, cfg))
}

// FuzzParseOracle requires Parse and the pre-rewrite oracle parser to agree
// on every single-net deck: the same error text, or node-for-node identical
// trees with bit-identical values.
func FuzzParseOracle(f *testing.F) {
	for _, s := range append(netlist.ParseSeeds(), netlist.OracleEdgeDecks...) {
		f.Add(s)
	}
	cfg := randnet.DefaultDesignConfig(4, 10)
	f.Add(netlist.Write(randnet.DesignSeed(1, cfg).Nets[0].Tree))
	f.Fuzz(func(t *testing.T, src string) {
		netlist.CheckParseOracle(t, src)
	})
}

// FuzzParseDesignOracle is FuzzParseOracle for ParseDesign.
func FuzzParseDesignOracle(f *testing.F) {
	for _, s := range append(netlist.DesignSeeds(), netlist.OracleEdgeDesigns...) {
		f.Add(s)
	}
	f.Add(randDesignDeck(4, 10, 20))
	f.Fuzz(func(t *testing.T, src string) {
		netlist.CheckParseDesignOracle(t, src)
	})
}
