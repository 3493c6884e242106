package obs

import (
	"math"
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

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{1, 2, 4, 8})
	// 100 observations uniform in (0,1]: all land in the first bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// All mass in bucket (0,1]: p50 interpolates to 0.5 within [0,1].
	if got := s.P50(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.5", got)
	}

	h2 := reg.Histogram("lat2", []float64{1, 2, 4, 8})
	for i := 0; i < 50; i++ {
		h2.Observe(0.5) // bucket <=1
	}
	for i := 0; i < 50; i++ {
		h2.Observe(3) // bucket <=4
	}
	s2 := h2.Snapshot()
	// p95: rank 95 of 100, 50 below 1, 50 in (2,4] => 2 + 2*(95-50)/50 = 3.8
	if got := s2.P95(); math.Abs(got-3.8) > 1e-9 {
		t.Fatalf("p95 = %v, want 3.8", got)
	}
	if got := s2.P99(); math.Abs(got-3.96) > 1e-9 {
		t.Fatalf("p99 = %v, want 3.96", got)
	}

	// Overflow clamps to the top finite bound.
	h3 := reg.Histogram("lat3", []float64{1, 2})
	h3.Observe(100)
	if got := h3.Snapshot().P99(); got != 2 {
		t.Fatalf("overflow p99 = %v, want clamp to 2", got)
	}

	// Empty histogram: NaN.
	h4 := reg.Histogram("lat4", []float64{1})
	if got := h4.Snapshot().P50(); !math.IsNaN(got) {
		t.Fatalf("empty p50 = %v, want NaN", got)
	}
	if got := h4.Snapshot().Quantile(-0.1); !math.IsNaN(got) {
		t.Fatalf("q<0 = %v, want NaN", got)
	}
	// NaN observations are dropped.
	h4.Observe(math.NaN())
	if got := h4.Snapshot().Count; got != 0 {
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
