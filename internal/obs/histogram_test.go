package obs

import (
	"math"
	"sync"
	"testing"
)

// TestHistogramObserveSnapshotRace hammers one histogram with concurrent
// observers — all adding the same value, to maximize contention on the
// CAS-updated sum — while other goroutines snapshot it continuously. Run
// under -race this proves Observe/Snapshot need no external locking; the
// final count and sum prove no CAS update was lost.
func TestHistogramObserveSnapshotRace(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("race_lat", LatencyBuckets)
	const (
		writers = 8
		readers = 4
		perW    = 2000
	)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := h.Snapshot()
				// Mid-flight snapshots may tear across counters, but each
				// field must stay internally sane.
				if s.Sum < 0 || math.IsNaN(s.Sum) {
					t.Errorf("torn sum: %v", s.Sum)
					return
				}
				if len(s.Counts) != len(s.Buckets)+1 {
					t.Errorf("counts/buckets mismatch: %d vs %d", len(s.Counts), len(s.Buckets))
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(0.25)
			}
		}()
	}
	// Wait for writers only, then release the readers.
	waitWriters := make(chan struct{})
	go func() { wg.Wait(); close(waitWriters) }()
	for {
		s := h.Snapshot()
		if s.Count == writers*perW {
			break
		}
		select {
		case <-waitWriters:
		default:
			continue
		}
		break
	}
	close(done)
	<-waitWriters

	s := h.Snapshot()
	if s.Count != writers*perW {
		t.Fatalf("count = %d, want %d", s.Count, writers*perW)
	}
	if want := 0.25 * float64(writers*perW); math.Abs(s.Sum-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v (lost CAS update)", s.Sum, want)
	}
}
