package netlist_test

import (
	"testing"

	"repro/internal/netlist"
)

// BenchmarkParseDesign reads a 20-level × 100-net random design of 40-node
// trees (2000 nets in a 5 MB deck, the shape of a batch signoff).
func BenchmarkParseDesign(b *testing.B) {
	deck := randDesignDeck(20, 100, 40)
	b.SetBytes(int64(len(deck)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := netlist.ParseDesign(deck); err != nil {
			b.Fatal(err)
		}
	}
}
