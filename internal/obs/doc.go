// Package obs is the repository's zero-dependency telemetry layer: a
// metrics registry (counters, gauges, fixed-bucket histograms with
// p50/p95/p99 snapshots), threaded through the timing core, the closure
// engine, the batch pool, and the rcserve HTTP surface.
//
// # Registry
//
// A Registry hands out named instruments, get-or-create style:
//
//	reg := obs.NewRegistry()
//	reg.Counter("closure_moves_accepted_total").Add(1)
//	reg.Gauge("rcserve_sessions_active").Set(float64(n))
//	reg.Histogram("http_request_seconds", obs.LatencyBuckets,
//	    "route", "POST /design").Observe(dt.Seconds())
//
// Instruments are keyed by name plus ordered label key/value pairs, so the
// same name with different labels yields distinct series — the Prometheus
// model, without the dependency. WritePrometheus renders the whole registry
// in text exposition format with deterministic (sorted) ordering, which is
// what rcserve's GET /metrics serves and what the golden test pins.
//
// # Nil safety
//
// Every method on a nil *Registry, *Counter, *Gauge, or *Histogram is a
// cheap no-op. Engine code therefore threads an optional registry without
// guarding call sites; phases time themselves through trace.StartOp, which
// observes "<name>_seconds{labels}" on the registry (and opens a trace span)
// only when one is enabled:
//
//	var reg *obs.Registry // nil: telemetry disabled
//	ctx, op := trace.StartOp(ctx, reg, "timing_propagate", "sched", "worksteal")
//	... hot work ...
//	op.End() // records into timing_propagate_seconds only when enabled
//
// Engine phases (arena build, levelize, propagation per schedule, dirty-cone
// re-propagation, closure rounds) each wrap themselves that way, so
// GET /metrics exposes per-phase duration distributions without any
// collector infrastructure. BenchmarkArenaPropagationObs in internal/timing
// pins the disabled path to <2% overhead over the bare kernel;
// scripts/bench_trajectory.sh records the ratio as metrics_overhead in
// BENCH_timing.json.
package obs
