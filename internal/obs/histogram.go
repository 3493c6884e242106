package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// LatencyBuckets is the default upper-bound ladder for request and
// engine-phase durations in seconds: 100µs to 10s, roughly ×3 per step.
var LatencyBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10,
}

// SizeBuckets is the default ladder for count-shaped observations (dirty
// nets, candidate moves, queue depths): powers of 4 from 1 to 65536.
var SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

// A Histogram accumulates observations into fixed upper-bound buckets (plus
// an implicit +Inf overflow bucket) with lock-free atomic counters. Bucket
// bounds are fixed at creation and must be sorted ascending.
type Histogram struct {
	buckets []float64 // ascending upper bounds, +Inf implicit
	counts  []uint64  // len(buckets)+1, atomically updated
	sumBits uint64    // float64 bits of the running sum, CAS-updated
	total   uint64    // atomic observation count
}

// Histogram returns the histogram named name with the given bucket bounds,
// creating it on first use. The bounds of an existing series win; callers
// observing into the same name must agree on them.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, func() any {
		b := make([]float64, len(buckets))
		copy(b, buckets)
		sort.Float64s(b)
		return &Histogram{buckets: b, counts: make([]uint64, len(b)+1)}
	}).(*Histogram)
}

// Observe records one value (no-op on nil; NaN dropped).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	atomic.AddUint64(&h.counts[i], 1)
	atomic.AddUint64(&h.total, 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, next) {
			return
		}
	}
}

// A HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts has one more entry than Buckets: the +Inf overflow bucket.
type HistogramSnapshot struct {
	Buckets []float64
	Counts  []uint64
	Sum     float64
	Count   uint64
}

// Snapshot copies the current counts. The copy is not atomic across buckets
// (concurrent observers may land mid-copy) but each counter read is, which
// is the usual scrape-time contract.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Buckets: h.buckets,
		Counts:  make([]uint64, len(h.counts)),
		Sum:     math.Float64frombits(atomic.LoadUint64(&h.sumBits)),
		Count:   atomic.LoadUint64(&h.total),
	}
	for i := range h.counts {
		s.Counts[i] = atomic.LoadUint64(&h.counts[i])
	}
	return s
}
