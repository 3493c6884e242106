package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	rcdelay "repro"
)

func TestSameSeedSameInputs(t *testing.T) {
	a := genDeck(3, "d", serveShape)
	if b := genDeck(3, "d", serveShape); a != b {
		t.Fatal("same seed gave different decks")
	}
	if c := genDeck(4, "d", serveShape); a == c {
		t.Fatal("different seeds gave the same deck")
	}
	script := func(seed int64, client int) []byte {
		s := newEditScript(seed, client, serveShape)
		var buf bytes.Buffer
		for i := 0; i < 300; i++ {
			op := s.next(2)
			buf.WriteString(op.kind)
			buf.WriteByte(byte('0' + op.design))
			if op.edits != nil {
				buf.Write(editBody(op.edits))
			}
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	if !bytes.Equal(script(3, 0), script(3, 0)) {
		t.Fatal("same seed gave different request scripts")
	}
	if bytes.Equal(script(3, 0), script(3, 1)) || bytes.Equal(script(3, 0), script(4, 0)) {
		t.Fatal("different clients or seeds gave the same request script")
	}
}

func TestGeneratedDeckParses(t *testing.T) {
	d, err := rcdelay.ParseDesign(genDeck(1, "d", serveShape))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(d.Nets), serveShape.levels*serveShape.width; got != want {
		t.Fatalf("nets = %d, want %d", got, want)
	}
	// Every scripted edit must apply: the workloads count a rejected edit
	// as a failed operation.
	sess, err := rcdelay.NewDesignSession(context.Background(), d, rcdelay.DesignOptions{Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	s := newEditScript(1, 0, serveShape)
	for i := 0; i < 500; i++ {
		if op := s.next(1); op.edits != nil {
			if _, err := sess.Apply(op.edits); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0.5); got != 5.5 {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := quantile(xs, 0.99); math.Abs(got-9.91) > 1e-12 {
		t.Errorf("p99 = %v, want 9.91", got)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{200, 0.95, 10}, {182, 0.95, 10}, {181, 0.95, 9}, {1000, 0.99, 10}, {902, 0.99, 10}, {901, 0.99, 9}, {20, 0.5, 10}, {19, 0.5, 9}, {0, 0.5, 0},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	if _, err := summarize(sample(181), 0.95); err == nil {
		t.Error("p95 of 181 samples accepted with 9 beyond")
	}
	d, err := summarize(sample(200), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if d.n != 200 || d.p50 != 100.5 || d.mean != 100.5 || d.tailBeyond != 10 {
		t.Errorf("summary = %+v", d)
	}
	if _, err := summarize(sample(15), 0.5); err == nil {
		t.Error("median of 15 samples accepted with 7 beyond")
	}
}

const promBefore = `# TYPE http_request_seconds histogram
http_request_seconds_bucket{route="POST /design/{id}/edit",le="0.001"} 3
http_request_seconds_bucket{route="POST /design/{id}/edit",le="+Inf"} 4
http_request_seconds_sum{route="POST /design/{id}/edit"} 0.004
http_request_seconds_count{route="POST /design/{id}/edit"} 4
http_request_seconds_sum{route="GET /design/{id}"} 1
http_request_seconds_count{route="GET /design/{id}"} 10
# TYPE http_requests_total counter
http_requests_total{code="200",route="POST /design/{id}/edit"} 4
http_requests_total{code="429",route="POST /design/{id}/edit"} 1
timing_propagate_seconds_sum{core="arena",sched="worksteal"} 0.5
timing_propagate_seconds_count{core="arena",sched="worksteal"} 5
weird{path="a \"quoted\" \\ value, with {braces}"} 7
`

const promAfter = `http_request_seconds_sum{route="POST /design/{id}/edit"} 0.010
http_request_seconds_count{route="POST /design/{id}/edit"} 7
http_request_seconds_sum{route="GET /design/{id}"} 2
http_request_seconds_count{route="GET /design/{id}"} 20
http_requests_total{code="200",route="POST /design/{id}/edit"} 7
http_requests_total{code="429",route="POST /design/{id}/edit"} 3
http_requests_total{code="429",route="POST /design"} 2
timing_propagate_seconds_sum{core="arena",sched="worksteal"} 0.9
timing_propagate_seconds_count{core="arena",sched="worksteal"} 7
timing_propagate_seconds_sum{core="arena",sched="sequential"} 0.1
timing_propagate_seconds_count{core="arena",sched="sequential"} 1
`

func TestPromWindow(t *testing.T) {
	before, err := parseProm(promBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(promAfter)
	if err != nil {
		t.Fatal(err)
	}
	if got := before.sum("weird", "path", `a "quoted" \ value, with {braces}`); got != 7 {
		t.Errorf("escaped label value: sum = %v, want 7", got)
	}
	w := promWindow{before, after}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("edit mean", w.meanMs("http_request_seconds", "route", "POST /design/{id}/edit"), 2) // 6 ms over 3
	near("info mean", w.meanMs("http_request_seconds", "route", "GET /design/{id}"), 100)
	near("rejected", w.delta("http_requests_total", "code", "429"), 4)
	// Label sets sum: the sequential series appears only after.
	near("propagate mean", w.meanMs("timing_propagate_seconds"), 1000*0.5/3)
	near("absent", w.meanMs("wal_fsync_seconds"), 0)
	if _, err := parseProm(`bad{route="x} 1`); err == nil {
		t.Error("unterminated label value accepted")
	}
	if _, err := parseProm(`novalue`); err == nil {
		t.Error("line without a value accepted")
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	dur := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	// Root 0–100 ms with concurrent trials 10–40 and 30–60 (union 50 ms),
	// a nested child 70–90 whose own child covers 75–80, and a straggler
	// that outlives the root (clipped at 100).
	nested := &span{Name: "wal_append", Start: at(70), Dur: dur(20), Children: []*span{
		{Name: "wal_fsync", Start: at(75), Dur: dur(5)},
	}}
	root := &span{Name: "rcserve.request", Start: at(0), Dur: dur(100), Children: []*span{
		{Name: "closure_trial", Start: at(30), Dur: dur(30)},
		{Name: "closure_trial", Start: at(10), Dur: dur(30)},
		nested,
		{Name: "late", Start: at(95), Dur: dur(20)},
	}}
	if got := selfTime(root); got != dur(100-50-20-5) {
		t.Errorf("root self = %v, want 25ms", got)
	}
	if got := selfTime(nested); got != dur(15) {
		t.Errorf("nested self = %v, want 15ms", got)
	}
	selfs := map[string]time.Duration{}
	addSelfTimes(root, selfs)
	want := map[string]time.Duration{"rcserve.request": dur(25), "closure_trial": dur(60), "wal_append": dur(15), "wal_fsync": dur(5), "late": dur(20)}
	for k, v := range want {
		if selfs[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, selfs[k], v)
		}
	}
}

func TestTreeFromRecorded(t *testing.T) {
	tr := rcdelay.NewTracer(rcdelay.TracerOptions{SlowThreshold: -1})
	ctx, root := tr.Start(context.Background(), "signoff")
	actx, a := rcdelay.StartTraceSpan(ctx, "timing.analyze")
	_, b := rcdelay.StartTraceSpan(actx, "timing_propagate")
	b.End()
	a.End()
	_, c := rcdelay.StartTraceSpan(ctx, "timing.json")
	c.End()
	root.End()
	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("%d traces recorded, want 1", len(recent))
	}
	roots := treeFromRecorded(recent[0])
	if len(roots) != 1 || roots[0].Name != "signoff" || len(roots[0].Children) != 2 {
		t.Fatalf("tree = %+v", roots)
	}
	for _, ch := range roots[0].Children {
		if ch.Name == "timing.analyze" && (len(ch.Children) != 1 || ch.Children[0].Name != "timing_propagate") {
			t.Errorf("timing.analyze children = %+v", ch.Children)
		}
	}
}

func TestParseServerTrace(t *testing.T) {
	body := []byte(`{"id":"ab","spans":[{"spanId":"1","name":"rcserve.request","start":"2026-01-01T00:00:00Z","durationUs":1000,
		"attrs":{"route":"POST /design/{id}/edit"},"children":[{"spanId":"2","parentId":"1","name":"wal_append",
		"start":"2026-01-01T00:00:00.0002Z","durationUs":300}]}]}`)
	roots, err := parseServerTrace(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || len(roots[0].Children) != 1 || roots[0].Children[0].Name != "wal_append" {
		t.Fatalf("roots = %+v", roots)
	}
	if got := selfTime(roots[0]); got != 700*time.Microsecond {
		t.Errorf("self = %v, want 700µs", got)
	}
}

func TestLeadingNumber(t *testing.T) {
	v, ok := leadingNumber([]byte(`{"gen": 42, "id": "x", "report": {"big": [1,2,3]}}`), "gen")
	if !ok || v != 42 {
		t.Errorf("gen = %v %v", v, ok)
	}
	v, ok = leadingNumber([]byte(`{"id": "x", "report": {"gen": 1}, "gen": 7}`), "gen")
	if !ok || v != 7 {
		t.Errorf("top-level gen after nested one = %v %v", v, ok)
	}
	if _, ok := leadingNumber([]byte(`{"id": "x"}`), "gen"); ok {
		t.Error("missing key found")
	}
}

// The metric lists the benchmark prints are the ones BENCHMARK.json
// declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}
