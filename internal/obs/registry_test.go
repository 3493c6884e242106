package obs

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "route", "GET /metrics")
	c.Add(3)
	c.Add(-5) // negative adds are dropped: counters are monotonic
	c.Add(2)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := reg.Counter("requests_total", "route", "GET /metrics"); again != c {
		t.Fatal("same name+labels must return the same counter")
	}
	if other := reg.Counter("requests_total", "route", "POST /design"); other == c {
		t.Fatal("different labels must return a distinct counter")
	}

	g := reg.Gauge("inflight")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	sampled := 7.25
	reg.GaugeFunc("queue_depth", func() float64 { return sampled })
	var out strings.Builder
	reg.WritePrometheus(&out)
	if !strings.Contains(out.String(), "queue_depth 7.25") {
		t.Fatalf("gauge func not sampled at exposition:\n%s", out.String())
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	// Every instrument from a nil registry is nil and every method no-ops.
	reg.Counter("x").Add(1)
	reg.Gauge("y").Set(2)
	reg.Gauge("y").Add(1)
	reg.GaugeFunc("z", func() float64 { return 1 })
	reg.Histogram("h", LatencyBuckets).Observe(0.5)
	reg.WritePrometheus(&strings.Builder{})
	if v := reg.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	if v := reg.Gauge("y").Value(); v != 0 {
		t.Fatalf("nil gauge value = %v", v)
	}
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram snapshot count = %d", s.Count)
	}
}

// TestWritePrometheusGolden pins the exposition format byte-for-byte:
// deterministic ordering (name, then labels), TYPE headers once per metric,
// cumulative le buckets with _sum and _count.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	// Register out of order to prove sorting.
	reg.Counter("zeta_total").Add(9)
	reg.Counter("alpha_total", "route", "b").Add(2)
	reg.Counter("alpha_total", "route", "a").Add(1)
	reg.Gauge("mid_gauge").Set(1.5)
	h := reg.Histogram("dur_seconds", []float64{0.1, 1}, "phase", "build")
	// Values chosen to sum exactly in binary so the golden _sum line is stable.
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5) // overflow bucket

	var out strings.Builder
	reg.WritePrometheus(&out)
	const want = `# TYPE alpha_total counter
alpha_total{route="a"} 1
alpha_total{route="b"} 2
# TYPE dur_seconds histogram
dur_seconds_bucket{phase="build",le="0.1"} 1
dur_seconds_bucket{phase="build",le="1"} 3
dur_seconds_bucket{phase="build",le="+Inf"} 4
dur_seconds_sum{phase="build"} 6.0625
dur_seconds_count{phase="build"} 4
# TYPE mid_gauge gauge
mid_gauge 1.5
# TYPE zeta_total counter
zeta_total 9
`
	if out.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestHistogramSnapshot pins the bucket placement Snapshot reports and
// WritePrometheus renders: upper bounds are inclusive, overflow lands in the
// trailing +Inf count, and NaN observations are dropped.
func TestHistogramSnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{1, 2, 4, 8})
	for i := 0; i < 50; i++ {
		h.Observe(0.5) // bucket <=1
	}
	for i := 0; i < 49; i++ {
		h.Observe(3) // bucket <=4
	}
	h.Observe(4)   // an upper bound is inclusive
	h.Observe(100) // +Inf overflow
	s := h.Snapshot()
	if s.Count != 101 {
		t.Fatalf("count = %d, want 101", s.Count)
	}
	if want := []uint64{50, 0, 50, 0, 1}; !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("counts = %v, want %v", s.Counts, want)
	}
	if want := 0.5*50 + 3*49 + 4 + 100; math.Abs(s.Sum-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}

	// NaN observations are dropped.
	h2 := reg.Histogram("lat2", []float64{1})
	h2.Observe(math.NaN())
	if got := h2.Snapshot().Count; got != 0 {
		t.Fatalf("NaN observation recorded: count = %d", got)
	}
}

// TestRegistryRaceHammer drives concurrent get-or-create, updates, and
// expositions through one registry; run with -race it proves the locking.
func TestRegistryRaceHammer(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"hammer_a_total", "hammer_b_total", "hammer_c_total"}
			for i := 0; i < 500; i++ {
				n := names[i%len(names)]
				reg.Counter(n, "worker", string(rune('a'+w%4))).Add(1)
				reg.Gauge("hammer_gauge").Add(1)
				reg.Histogram("hammer_lat", LatencyBuckets).Observe(float64(i) / 1000)
				if i%100 == 0 {
					reg.GaugeFunc("hammer_fn", func() float64 { return float64(i) })
					reg.WritePrometheus(&strings.Builder{})
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, lbl := range []string{"a", "b", "c", "d"} {
		for _, n := range []string{"hammer_a_total", "hammer_b_total", "hammer_c_total"} {
			total += reg.Counter(n, "worker", lbl).Value()
		}
	}
	if total != workers*500 {
		t.Fatalf("lost updates: total = %d, want %d", total, workers*500)
	}
	if got := reg.Histogram("hammer_lat", LatencyBuckets).Snapshot().Count; got != workers*500 {
		t.Fatalf("histogram count = %d, want %d", got, workers*500)
	}
}
