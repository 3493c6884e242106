package main

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The serve workloads drive an rcserve process over loopback, through its
// public routes only: designs and edits go in as request bodies, layer
// figures come out of GET /metrics and GET /debug/traces/{id}.

const (
	// clients is the closed-loop client count: one per CPU of the 2-CPU
	// machine the benchmark was sized on, each with its own connection.
	clients = 2
	// traceBuffer sizes rcserve's flight recorder. The traced run fetches
	// at most traceFetch traces, all among the newest traceBuffer-traceFetch
	// requests, so neither the window's traffic nor the fetches themselves
	// evict a trace before it is read.
	traceBuffer = 1 << 14
	traceFetch  = 1 << 12
)

// server is one running rcserve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startServer launches rcserve on a free loopback port with data under
// dataDir and waits until /readyz answers 200.
// traceBuf > 0 overrides the flight recorder's size (the traced run's).
func startServer(bin, dataDir, logPath string, traceBuf int) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-data-dir", dataDir}
	if traceBuf > 0 {
		args = append(args, "-trace-buffer", strconv.Itoa(traceBuf))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed server exits non-zero; that is the point
		logf.Close()
		close(s.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("rcserve exited before it was ready (log: %s)", logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("rcserve not ready within 60s (log: %s)", logPath)
		}
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (s *server) kill() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.exited
}

// peakRSSMB is the server's peak resident set (the kernel's maxrss, the
// VmHWM it reached) in megabytes, known once the process has been reaped.
func (s *server) peakRSSMB() (float64, error) {
	<-s.exited
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("no resource usage for rcserve")
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil
}

// dirMB sums the sizes of the regular files under dir, in megabytes.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return float64(total) / 1e6, err
}

// call is one completed request.
type call struct {
	route   string
	status  int
	lat     time.Duration
	traceID string // set when the request carried a traceparent
	seq     int64  // completion order across all clients
	body    []byte
	err     error
	ok      bool   // set by the workload once status and content are checked
	wrong   string // a successful status with a wrong answer: a failed output check
}

// client issues requests to one server. traced requests carry a fresh W3C
// traceparent so their server-side span trees can be fetched afterwards.
type client struct {
	hc     *http.Client
	base   string
	traced bool
	seq    *atomic.Int64
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
}

func (c *client) do(method, path, route string, body []byte) call {
	out := call{route: route}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		out.err = err
		return out
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.traced {
		var id [24]byte
		if _, err := rand.Read(id[:]); err != nil {
			out.err = err
			return out
		}
		out.traceID = hex.EncodeToString(id[:16])
		req.Header.Set("traceparent", "00-"+out.traceID+"-"+hex.EncodeToString(id[16:])+"-01")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		out.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
	}
	out.lat = time.Since(t0)
	out.err = err
	out.seq = c.seq.Add(1)
	return out
}

// routeStats is the per-route tally of a window.
type routeStats struct {
	attempted, failed int
	lat               []float64 // successful calls, ms
}

// tally counts attempted and failed calls per route.
func tally(calls []call) map[string]*routeStats {
	out := map[string]*routeStats{}
	for _, c := range calls {
		st := out[c.route]
		if st == nil {
			st = &routeStats{}
			out[c.route] = st
		}
		st.attempted++
		if c.ok {
			st.lat = append(st.lat, millis(c.lat))
		} else {
			st.failed++
		}
	}
	return out
}

// scrape reads GET /metrics.
func (c *client) scrape() (promSnap, error) {
	r := c.do("GET", "/metrics", "metrics", nil)
	if r.err != nil || r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", r.status, r.err)
	}
	return parseProm(string(r.body))
}

// fetchTraces reads the span trees of the newest traced calls (at most
// traceFetch, oldest first, so each fetch can only evict a trace already
// read) and returns them keyed by trace id.
func (c *client) fetchTraces(calls []call) (map[string][]*span, error) {
	var traced []call
	for _, k := range calls {
		if k.traceID != "" {
			traced = append(traced, k)
		}
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i].seq < traced[j].seq })
	if len(traced) > traceFetch {
		traced = traced[len(traced)-traceFetch:]
	}
	plain := *c
	plain.traced = false
	out := make(map[string][]*span, len(traced))
	for _, k := range traced {
		r := plain.do("GET", "/debug/traces/"+k.traceID, "traces", nil)
		if r.err != nil || r.status != http.StatusOK {
			return nil, fmt.Errorf("GET /debug/traces/%s: status %d: %v", k.traceID, r.status, r.err)
		}
		roots, err := parseServerTrace(r.body)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", k.traceID, err)
		}
		out[k.traceID] = roots
	}
	return out, nil
}

// closedLoop runs fn on each of the clients until the deadline; fn performs
// one operation and records its calls. It returns when every client has
// finished its last operation.
func closedLoop(deadline time.Time, fn func(client int)) {
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				fn(i)
			}
		}(i)
	}
	wg.Wait()
}

// serveLayers fills the per-layer metrics that /metrics and the span trees
// give for a serve workload. keyOps is the number of the workload's key
// operations in the window (edit requests or lifecycles), the base of the
// per-operation counts.
func serveLayers(res *result, w promWindow, stats map[string]*routeStats, trees map[string][]*span, calls []call, keyOps float64) {
	l := res.layer
	l["timing.levelize_ms"] = w.meanMs("timing_levelize_seconds")
	l["timing.arena_build_ms"] = w.meanMs("timing_arena_build_seconds")
	l["timing.propagate_ms"] = w.meanMs("timing_propagate_seconds")
	l["timing.eco_apply_ms"] = w.meanMs("timing_eco_apply_seconds")
	l["timing.eco_applies"] = ratio(w.delta("timing_eco_apply_seconds_count"), keyOps)
	l["timing.eco_dirty_nets"] = ratio(w.delta("timing_eco_dirty_nets_sum"), w.delta("timing_eco_dirty_nets_count"))
	l["timing.eco_dirty_ratio"] = ratio(w.delta("timing_eco_dirty_nets_sum"), w.delta("timing_eco_visited_nets_sum"))
	runs := w.delta("closure_run_seconds_count")
	l["closure.run_ms"] = w.meanMs("closure_run_seconds")
	l["closure.trial_ms"] = w.meanMs("closure_trial_seconds")
	l["closure.trials_per_run"] = ratio(w.delta("closure_trials_total"), runs)
	l["closure.forks_per_run"] = ratio(w.delta("closure_forks_total"), runs)
	l["closure.accept_ratio"] = ratio(w.delta("closure_moves_accepted_total"), w.delta("closure_trials_total"))
	l["mcd.sweep_ms"] = 1000 * ratio(w.delta("mcd_corner_sweep_seconds_sum"),
		w.delta("http_request_seconds_count", "route", "POST /design/{id}/corners"))
	l["wal.append_ms"] = w.meanMs("wal_append_seconds")
	l["wal.fsync_ms"] = w.meanMs("wal_fsync_seconds")
	l["wal.snapshot_ms"] = w.meanMs("wal_snapshot_seconds")
	l["wal.rotations"] = ratio(w.delta("wal_rotations_total"), keyOps)
	l["rcserve.rejected"] = w.delta("http_requests_total", "code", "429")

	selfs := map[string][]float64{}
	for _, k := range calls {
		for _, root := range trees[k.traceID] {
			selfs[k.route] = append(selfs[k.route], millis(selfTime(root)))
		}
	}
	for _, r := range serveRoutes {
		st := stats[r.name]
		if st == nil {
			continue
		}
		server := w.meanMs("http_request_seconds", "route", r.pattern)
		l["rcserve."+r.name+".server_ms"] = server
		l["rcserve."+r.name+".self_ms"] = mean(selfs[r.name])
		l["rcserve."+r.name+".gap_ms"] = mean(st.lat) - server
		res.printf("%-8s attempted=%-6d failed=%-4d client mean=%8.3f ms  server mean=%8.3f ms  untraced server self=%8.3f ms (%d traces)",
			r.name, st.attempted, st.failed, mean(st.lat), server, mean(selfs[r.name]), len(selfs[r.name]))
	}
}

// printRoutes adds every route's attempted/failed counts to the report.
func printRoutes(res *result, stats map[string]*routeStats) {
	for _, r := range serveRoutes {
		if st := stats[r.name]; st != nil {
			res.printf("%-8s attempted=%-6d failed=%d", r.name, st.attempted, st.failed)
		}
	}
}

// account folds calls into the run's totals: every call is an attempted
// operation, every unsuccessful one a failed operation, and a wrong answer
// also a failed output check.
func account(res *result, calls []call) {
	for _, c := range calls {
		res.attempted++
		if !c.ok {
			res.failed++
		}
		if c.wrong != "" {
			res.problems = append(res.problems, c.route+": "+c.wrong)
		}
	}
}
