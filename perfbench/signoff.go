package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	rcdelay "repro"
)

// Signoff workload: repeated sequential signoffs of one fixed design through
// the library, on the statime -design -format json call path.

const (
	signoffThreshold = 0.7
	signoffK         = 3
	// signoffRequiredFrac places the required time below the worst arrival
	// so that the report carries failing and unknown verdicts.
	signoffRequiredFrac = 0.9
	// signoffTailQ is the tail percentile reported for one signoff. A
	// signoff took 0.3–0.78 s on the 2-CPU machine as the host's load
	// moved, so a 30-s window holds 38–100 samples, and p70 keeps ten
	// beyond it down to 32.
	signoffTailQ = 0.7
	// setupRepeats is how many times each workload's set-up runs; setup_s is
	// the median.
	setupRepeats = 3
)

// signoffRef is what every signoff must reproduce bit for bit: the
// sequential analysis computed at set-up.
type signoffRef struct {
	wns, tns  float64
	endpoints int
	jsonCRC   uint32
	jsonLen   int64
}

type signoffInput struct {
	deck string
	nets int
	opt  rcdelay.DesignOptions
	ref  signoffRef
}

// jsonSink counts and checksums the encoded report — the bytes statime would
// write to its output.
type jsonSink struct {
	crc uint32
	n   int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (s *jsonSink) Write(p []byte) (int, error) {
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.n += int64(len(p))
	return len(p), nil
}

// setupSignoff generates the design, places its required time, computes the
// sequential reference and runs one warm-up signoff.
func setupSignoff(seed int64) (*signoffInput, error) {
	deck := genDeck(seed, "signoff", signoffShape)
	worst, err := arrivalQuantile(deck, signoffThreshold, 1)
	if err != nil {
		return nil, err
	}
	in := &signoffInput{
		deck: deck,
		nets: signoffShape.levels * signoffShape.width,
		opt:  rcdelay.DesignOptions{Threshold: signoffThreshold, Required: signoffRequiredFrac * worst, K: signoffK},
	}
	d, err := rcdelay.ParseDesign(deck)
	if err != nil {
		return nil, err
	}
	seq := in.opt
	seq.Sequential = true
	rep, err := rcdelay.AnalyzeDesign(bg, d, seq)
	if err != nil {
		return nil, err
	}
	var sink jsonSink
	if err := rep.WriteJSON(&sink); err != nil {
		return nil, err
	}
	in.ref = signoffRef{wns: rep.WNS, tns: rep.TNS, endpoints: len(rep.Endpoints), jsonCRC: sink.crc, jsonLen: sink.n}
	got, err := in.signoff(bg, nil)
	if err != nil {
		return nil, err
	}
	if err := in.compare(got); err != nil {
		return nil, fmt.Errorf("warm-up signoff: %w", err)
	}
	return in, nil
}

// signoffOut is what one signoff produced, plus the traced layer figures.
type signoffOut struct {
	ref        signoffRef
	parseAlloc uint64 // bytes allocated by ParseDesign (traced signoffs only)
}

// signoff runs one parse → analyze → JSON signoff. With a non-nil ms it
// reads allocation counters around the parse; the caller's ctx carries the
// trace root span when the signoff is traced.
func (in *signoffInput) signoff(ctx context.Context, ms *runtime.MemStats) (signoffOut, error) {
	var out signoffOut
	var before uint64
	if ms != nil {
		runtime.ReadMemStats(ms)
		before = ms.TotalAlloc
	}
	_, sp := rcdelay.StartTraceSpan(ctx, "netlist.parse")
	d, err := rcdelay.ParseDesign(in.deck)
	sp.End()
	if err != nil {
		return out, err
	}
	if ms != nil {
		runtime.ReadMemStats(ms)
		out.parseAlloc = ms.TotalAlloc - before
	}
	actx, sp := rcdelay.StartTraceSpan(ctx, "timing.analyze")
	rep, err := rcdelay.AnalyzeDesign(actx, d, in.opt)
	sp.End()
	if err != nil {
		return out, err
	}
	_, sp = rcdelay.StartTraceSpan(ctx, "timing.json")
	var sink jsonSink
	err = rep.WriteJSON(&sink)
	sp.End()
	if err != nil {
		return out, err
	}
	out.ref = signoffRef{wns: rep.WNS, tns: rep.TNS, endpoints: len(rep.Endpoints), jsonCRC: sink.crc, jsonLen: sink.n}
	return out, nil
}

func (in *signoffInput) compare(got signoffOut) error {
	g, w := got.ref, in.ref
	if math.Float64bits(g.wns) != math.Float64bits(w.wns) || math.Float64bits(g.tns) != math.Float64bits(w.tns) ||
		g.endpoints != w.endpoints || g.jsonCRC != w.jsonCRC || g.jsonLen != w.jsonLen {
		return fmt.Errorf("signoff differs from the sequential reference: wns %v/%v tns %v/%v endpoints %d/%d json %d bytes crc %08x / %d bytes crc %08x",
			g.wns, w.wns, g.tns, w.tns, g.endpoints, w.endpoints, g.jsonLen, g.jsonCRC, w.jsonLen, w.jsonCRC)
	}
	return nil
}

func runSignoff(cfg config) (*result, error) {
	res := newResult()
	var setups []float64
	var in *signoffInput
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if in, err = setupSignoff(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setups)

	// In the traced run every other signoff opens a root span (so the
	// timing_* spans inside AnalyzeDesign attach under it); the untraced
	// ones in between give the tracing overhead.
	var tracer *rcdelay.Tracer
	if cfg.trace {
		tracer = rcdelay.NewTracer(rcdelay.TracerOptions{Capacity: 1 << 14, SlowThreshold: -1})
	}
	var plain, traced []float64
	var parseAlloc, jsonBytes uint64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcBefore := ms.NumGC
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		ctx := bg
		var root *rcdelay.TraceSpan
		var msp *runtime.MemStats
		withTrace := tracer != nil && i%2 == 0
		if withTrace {
			ctx, root = tracer.Start(bg, "signoff")
			msp = &ms
		}
		t0 := time.Now()
		got, err := in.signoff(ctx, msp)
		lat := time.Since(t0)
		root.End()
		res.attempted++
		if err == nil {
			err = in.compare(got)
		}
		if err != nil {
			res.failed++
			res.problems = append(res.problems, err.Error())
			continue
		}
		if withTrace {
			traced = append(traced, millis(lat))
			parseAlloc += got.parseAlloc
			jsonBytes += uint64(got.ref.jsonLen)
		} else {
			plain = append(plain, millis(lat))
		}
	}
	window := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	gcCycles := ms.NumGC - gcBefore
	ok := len(plain) + len(traced)

	res.printf("design: %d nets, %d endpoints, %.2f MB deck; window %.2f s", in.nets, in.ref.endpoints, float64(len(in.deck))/1e6, window)
	res.printf("operations: attempted=%d succeeded=%d failed=%d", res.attempted, ok, res.failed)
	res.printf("setup_s samples: %v", setups)
	if !cfg.trace {
		d, err := summarize(plain, signoffTailQ)
		if err != nil {
			return nil, fmt.Errorf("signoff latency: %w", err)
		}
		res.printDist("signoff", d)
		res.printf("signoff_nets_per_s     %.1f nets/s", float64(ok*in.nets)/window)
		res.e2e["ops_per_s"] = float64(ok) / window
		res.e2e["p50_ms"] = d.p50
		res.e2e["tail_ms"] = d.tail
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, err
		}
		res.e2e["peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6
		res.printf("error_rate             %g (%d of %d)", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
		return res, nil
	}

	if len(traced) == 0 || len(plain) == 0 {
		return nil, fmt.Errorf("traced run completed no traced or no untraced signoff")
	}
	selfs := map[string]time.Duration{}
	for _, t := range tracer.Recent() {
		for _, r := range treeFromRecorded(t) {
			addSelfTimes(r, selfs)
		}
	}
	n := float64(len(traced))
	perOp := func(name string) float64 { return millis(selfs[name]) / n }
	l := res.layer
	l["netlist.parse_ms"] = perOp("netlist.parse")
	l["netlist.parse_alloc_mb"] = float64(parseAlloc) / 1e6 / n
	l["timing.levelize_ms"] = perOp("timing_levelize")
	l["timing.arena_build_ms"] = perOp("timing_arena_build")
	l["timing.propagate_ms"] = perOp("timing_propagate")
	l["timing.report_ms"] = perOp("timing.analyze")
	l["timing.json_ms"] = perOp("timing.json")
	l["timing.json_mb"] = float64(jsonBytes) / 1e6 / n
	l["go.gc_cycles"] = float64(gcCycles) / float64(ok)
	l["trace.overhead_ratio"] = median(traced) / median(plain)
	l["residual.ms"] = perOp("signoff")
	l["residual.share"] = ratio(perOp("signoff"), mean(traced))
	res.printf("traced signoffs: %d (mean %.3f ms), untraced: %d (mean %.3f ms)", len(traced), mean(traced), len(plain), mean(plain))
	chrome := filepath.Join(cfg.work, "signoff-trace.json")
	if err := writeChrome(chrome, tracer); err != nil {
		return nil, err
	}
	res.printf("chrome trace of the traced signoffs: %s", chrome)
	return res, nil
}

func writeChrome(path string, tracer *rcdelay.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rcdelay.WriteChromeTrace(f, tracer.Recent()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
