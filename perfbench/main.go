// Command perfbench is the repository's end-to-end benchmark of the
// Penfield–Rubinstein timing system. One workload per run:
//
//	signoff       repeated batch signoffs through the rcdelay library
//	              (ParseDesign → AnalyzeDesign → Report.WriteJSON, the
//	              statime -design -format json call path)
//	eco_serve     the interactive ECO loop against a durable rcserve:
//	              edit batches beside slack and summary reads, then a
//	              kill -9 and a timed recovery
//	repair_serve  whole design lifecycles against rcserve: create, close,
//	              corners, summary, delete
//
// run.sh builds this command and rcserve from the checkout and runs it:
//
//	bash perfbench/run.sh --workload signoff --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object whose
// metrics are the end-to-end metrics; with --trace 1 they are the per-layer
// metrics, from the same workload run with tracing on. The lines before it
// are a human-readable report: every timing with its sample count, and
// attempted and failed operations per route. Every workload checks its
// outputs against the library; a failed check counts as a failed operation
// and makes "correct" false.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

var bg = context.Background()

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	rcserve  string // rcserve binary (serve workloads)
	work     string // scratch directory for data dirs, logs and traces
}

// metricSpec names one reported metric; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricSpec struct{ name, unit, better string }

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// serveRoutes are the rcserve routes the serve workloads call, by the short
// name used in metric names.
var serveRoutes = []struct{ name, pattern string }{
	{"edit", "POST /design/{id}/edit"},
	{"slack", "GET /design/{id}/slack"},
	{"info", "GET /design/{id}"},
	{"create", "POST /design"},
	{"close", "POST /design/{id}/close"},
	{"corners", "POST /design/{id}/corners"},
	{"delete", "DELETE /design/{id}"},
}

var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"netlist.parse_ms", "ms", "lower"},
		{"netlist.parse_alloc_mb", "MB", "lower"},
		{"timing.levelize_ms", "ms", "lower"},
		{"timing.arena_build_ms", "ms", "lower"},
		{"timing.propagate_ms", "ms", "lower"},
		{"timing.report_ms", "ms", "lower"},
		{"timing.json_ms", "ms", "lower"},
		{"timing.json_mb", "MB", "lower"},
		{"timing.eco_apply_ms", "ms", "lower"},
		{"timing.eco_applies", "count", "lower"},
		{"timing.eco_dirty_nets", "count", "lower"},
		{"timing.eco_dirty_ratio", "ratio", "higher"},
		{"closure.run_ms", "ms", "lower"},
		{"closure.trial_ms", "ms", "lower"},
		{"closure.trials_per_run", "count", "lower"},
		{"closure.forks_per_run", "count", "lower"},
		{"closure.accept_ratio", "ratio", "higher"},
		{"mcd.sweep_ms", "ms", "lower"},
		{"wal.append_ms", "ms", "lower"},
		{"wal.fsync_ms", "ms", "lower"},
		{"wal.snapshot_ms", "ms", "lower"},
		{"wal.rotations", "count", "lower"},
		{"wal.recovery_ms", "ms", "lower"},
		{"wal.dir_mb", "MB", "lower"},
	}
	for _, r := range serveRoutes {
		m = append(m,
			metricSpec{"rcserve." + r.name + ".server_ms", "ms", "lower"},
			metricSpec{"rcserve." + r.name + ".self_ms", "ms", "lower"},
			metricSpec{"rcserve." + r.name + ".gap_ms", "ms", "lower"})
	}
	return append(m,
		metricSpec{"rcserve.rejected", "count", "lower"},
		metricSpec{"go.gc_cycles", "count", "lower"},
		metricSpec{"trace.overhead_ratio", "ratio", "lower"},
		metricSpec{"residual.ms", "ms", "lower"},
		metricSpec{"residual.share", "ratio", "lower"},
	)
}()

// result accumulates one run's outcome.
type result struct {
	attempted, failed int
	problems          []string           // failed output checks
	e2e               map[string]float64 // end-to-end metrics (--trace 0)
	layer             map[string]float64 // per-layer metrics (--trace 1)
	lines             []string           // the human-readable report
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one output check, recording it as a failed operation when ok
// is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// printDist adds one timing to the report with its sample count.
func (r *result) printDist(name string, d dist) {
	r.printf("%-22s n=%-6d mean=%10.3f ms  p50=%10.3f ms  p%g=%10.3f ms (%d beyond)",
		name, d.n, d.mean, d.p50, 100*d.q, d.tail, d.tailBeyond)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// final renders the last output line. End-to-end metrics must all have been
// measured; a per-layer metric the workload never reached (a layer it
// bypasses) reads 0.
func (r *result) final(trace bool) (resultJSON, error) {
	out := resultJSON{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	if r.attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	specs, vals := endToEnd, r.e2e
	if trace {
		specs, vals = perLayer, r.layer
	}
	for _, m := range specs {
		v, ok := vals[m.name]
		if !ok && !trace {
			return out, fmt.Errorf("metric %s was not measured", m.name)
		}
		out.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	return out, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "signoff | eco_serve | repair_serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same decks and request scripts")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.rcserve, "rcserve", "", "rcserve binary built from the commit under test")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for data dirs, logs and traces")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds < 1 || cfg.work == "" {
		return fmt.Errorf("need --seconds >= 1 and -work")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	var res *result
	var err error
	switch cfg.workload {
	case "signoff":
		res, err = runSignoff(cfg)
	case "eco_serve":
		res, err = runEco(cfg)
	case "repair_serve":
		res, err = runRepair(cfg)
	default:
		return fmt.Errorf("unknown --workload %q (want signoff, eco_serve or repair_serve)", cfg.workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	out, err := res.final(cfg.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for i, p := range res.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failed checks\n", len(res.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	fmt.Printf("== %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, l := range res.lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(string(line)))
	return nil
}
