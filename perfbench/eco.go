package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	rcdelay "repro"
)

// eco_serve workload: two closed-loop clients, each owning two designs, mix
// edit batches with slack and summary reads against rcserve -data-dir (an
// fsync per WAL append, the default snapshot cadence); then rcserve is
// killed with SIGKILL and its recovery timed.

const (
	ecoDesigns = 2 * clients
	// ecoRequiredFrac sets required times just under the worst arrival, so
	// slack moves with edits.
	ecoRequiredFrac = 0.98
	// The gated latencies are the slack read's median and the edit's p99.
	// The edit's median is dominated by loopback scheduling and the
	// virtual disk's fsync: it moved 12–24% between runs of the same code, so
	// it is reported but not gated.
	ecoTailQ        = 0.99
	slackTailQ      = 0.95
	ecoWarmup       = 500 * time.Millisecond
	recoveryRepeats = 3
)

// designRequest is the POST /design body.
type designRequest struct {
	Design    string  `json:"design"`
	Threshold float64 `json:"threshold"`
	Required  float64 `json:"required"`
	K         int     `json:"k"`
}

// designSummary is the part of a POST /design or GET /design/{id} answer the
// checks read.
type designSummary struct {
	ID    string   `json:"id"`
	Gen   uint64   `json:"gen"`
	Edits int      `json:"edits"`
	WNS   *float64 `json:"wns"`
	TNS   float64  `json:"tns"`
}

// ecoDesign is one served design and, for its owning client, everything the
// server acknowledged.
type ecoDesign struct {
	deck    string
	req     designRequest
	body    []byte
	id      string
	batches [][]rcdelay.DesignEdit // acknowledged edits, batch by batch
	edits   int
	gen     uint64
}

func newEcoDesigns(seed int64) ([]*ecoDesign, error) {
	out := make([]*ecoDesign, ecoDesigns)
	for i := range out {
		deck := genDeck(seed*10+int64(i), "eco"+strconv.Itoa(i), serveShape)
		worst, err := arrivalQuantile(deck, signoffThreshold, 1)
		if err != nil {
			return nil, err
		}
		d := &ecoDesign{deck: deck, req: designRequest{Threshold: signoffThreshold, Required: ecoRequiredFrac * worst, K: signoffK}}
		req := d.req
		req.Design = deck
		if d.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// create posts the design and resets the acknowledged state.
func (d *ecoDesign) create(c *client) error {
	r := c.do("POST", "/design", "create", d.body)
	var s designSummary
	if r.err != nil || r.status != http.StatusCreated || json.Unmarshal(r.body, &s) != nil || s.ID == "" {
		return fmt.Errorf("POST /design: status %d: %v: %.200s", r.status, r.err, r.body)
	}
	d.id, d.batches, d.edits, d.gen = s.ID, nil, 0, s.Gen
	return nil
}

// expected replays every acknowledged batch on a fresh library session.
func (d *ecoDesign) expected() (wns, tns float64, err error) {
	des, err := rcdelay.ParseDesign(d.deck)
	if err != nil {
		return 0, 0, err
	}
	sess, err := rcdelay.NewDesignSession(bg, des, rcdelay.DesignOptions{Threshold: d.req.Threshold, Required: d.req.Required, K: d.req.K})
	if err != nil {
		return 0, 0, err
	}
	for _, b := range d.batches {
		if _, err := sess.Apply(b); err != nil {
			return 0, 0, fmt.Errorf("replay: %w", err)
		}
	}
	rep := sess.Report()
	return rep.WNS, rep.TNS, nil
}

// verify compares the served summary with the replayed one to 1e-9.
func (d *ecoDesign) verify(c *client, wns, tns float64) error {
	r := c.do("GET", "/design/"+d.id, "info", nil)
	var s designSummary
	if r.err != nil || r.status != http.StatusOK || json.Unmarshal(r.body, &s) != nil {
		return fmt.Errorf("GET /design/%s: status %d: %v", d.id, r.status, r.err)
	}
	got := math.Inf(1)
	if s.WNS != nil {
		got = *s.WNS
	}
	if !near(got, wns) || !near(s.TNS, tns) || s.Edits != d.edits {
		return fmt.Errorf("design %s: served wns %v tns %v edits %d, replay wns %v tns %v edits %d",
			d.id, got, s.TNS, s.Edits, wns, tns, d.edits)
	}
	return nil
}

func near(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// ecoOpCall performs one scripted operation on design d and checks the
// answer: an edit must apply every edit; a read must see the generation of
// the last acknowledged edit (the owning client is the only writer).
func ecoOpCall(c *client, d *ecoDesign, op ecoOp) call {
	switch op.kind {
	case "edit":
		r := c.do("POST", "/design/"+d.id+"/edit", "edit", editBody(op.edits))
		var resp struct {
			Gen     uint64 `json:"gen"`
			Applied int    `json:"applied"`
		}
		if r.err == nil && (r.status == http.StatusOK || r.status == http.StatusUnprocessableEntity) &&
			json.Unmarshal(r.body, &resp) == nil && resp.Applied <= len(op.edits) {
			// A rejected edit leaves the applied prefix in effect and logged.
			if resp.Applied > 0 {
				d.batches = append(d.batches, op.edits[:resp.Applied])
				d.edits += resp.Applied
				d.gen = resp.Gen
			}
			r.ok = r.status == http.StatusOK && resp.Applied == len(op.edits)
			if r.status == http.StatusOK && !r.ok {
				r.wrong = fmt.Sprintf("edit answered 200 with %d of %d edits applied", resp.Applied, len(op.edits))
			}
		}
		return r
	case "slack":
		r := c.do("GET", "/design/"+d.id+"/slack", "slack", nil)
		if r.err == nil && r.status == http.StatusOK {
			gen, found := leadingNumber(r.body, "gen")
			r.ok = found && gen == float64(d.gen)
			if !r.ok {
				r.wrong = fmt.Sprintf("slack of %s at gen %v, last acknowledged edit gen %d", d.id, gen, d.gen)
			}
		}
		return r
	default:
		r := c.do("GET", "/design/"+d.id, "info", nil)
		if r.err == nil && r.status == http.StatusOK {
			var s designSummary
			r.ok = json.Unmarshal(r.body, &s) == nil && s.Gen == d.gen && s.Edits == d.edits
			if !r.ok {
				r.wrong = fmt.Sprintf("summary of %s at gen %d with %d edits, acknowledged gen %d with %d edits", d.id, s.Gen, s.Edits, d.gen, d.edits)
			}
		}
		return r
	}
}

// leadingNumber reads the numeric top-level field key from a JSON object,
// decoding only as far as that field.
func leadingNumber(body []byte, key string) (float64, bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return 0, false
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			return 0, false
		}
		if k == key {
			var v float64
			err := dec.Decode(&v)
			return v, err == nil
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return 0, false
		}
	}
	return 0, false
}

func runEco(cfg config) (*result, error) {
	res := newResult()
	designs, err := newEcoDesigns(cfg.seed)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(cfg.work, "eco-data")
	logPath := filepath.Join(cfg.work, "rcserve-eco.log")
	_ = os.Remove(logPath) // a fresh log per run; absent is fine
	traceBuf := 0
	if cfg.trace {
		traceBuf = traceBuffer
	}
	var seq atomic.Int64
	hc := newHTTPClient()
	var srv *server
	defer func() { srv.kill() }()

	// Set-up: server start to /readyz plus the initial creates, on a fresh
	// data dir each time.
	var setups []float64
	var plain client
	for i := 0; i < setupRepeats; i++ {
		srv.kill()
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if srv, err = startServer(cfg.rcserve, dataDir, logPath, traceBuf); err != nil {
			return nil, err
		}
		plain = client{hc: hc, base: srv.base, seq: &seq}
		for _, d := range designs {
			if err := d.create(&plain); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setups)

	scripts := make([]*editScript, clients)
	for i := range scripts {
		scripts[i] = newEditScript(cfg.seed, i, serveShape)
	}
	loop := func(deadline time.Time, traced bool) []call {
		logs := make([][]call, clients)
		closedLoop(deadline, func(ci int) {
			c := client{hc: hc, base: srv.base, traced: traced, seq: &seq}
			op := scripts[ci].next(2)
			r := ecoOpCall(&c, designs[2*ci+op.design], op)
			r.body = nil
			logs[ci] = append(logs[ci], r)
		})
		var all []call
		for _, l := range logs {
			all = append(all, l...)
		}
		return all
	}
	warm := loop(time.Now().Add(ecoWarmup), false)
	account(res, warm)

	before, err := plain.scrape()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	calls := loop(start.Add(time.Duration(cfg.seconds)*time.Second), cfg.trace)
	window := time.Since(start).Seconds()
	after, err := plain.scrape()
	if err != nil {
		return nil, err
	}
	stats := tally(calls)
	account(res, calls)
	var trees map[string][]*span
	if cfg.trace {
		if trees, err = plain.fetchTraces(calls); err != nil {
			return nil, err
		}
	}
	walMB, err := dirMB(dataDir)
	if err != nil {
		return nil, err
	}

	// Output checks: every design against a replay of its acknowledged
	// batches, now and after each kill -9 recovery.
	type want struct{ wns, tns float64 }
	wants := make([]want, len(designs))
	for i, d := range designs {
		wns, tns, err := d.expected()
		if err != nil {
			return nil, err
		}
		wants[i] = want{wns, tns}
		err = d.verify(&plain, wns, tns)
		res.check(err == nil, "before kill: %v", err)
	}
	srv.kill()
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var recoveries []float64
	var recWin promWindow
	for i := 0; i < recoveryRepeats; i++ {
		srv.kill()
		t0 := time.Now()
		if srv, err = startServer(cfg.rcserve, dataDir, logPath, 0); err != nil {
			return nil, err
		}
		plain = client{hc: hc, base: srv.base, seq: &seq}
		for j, d := range designs {
			err := d.verify(&plain, wants[j].wns, wants[j].tns)
			res.check(err == nil, "after kill -9 #%d: %v", i+1, err)
		}
		recoveries = append(recoveries, time.Since(t0).Seconds())
		if i == 0 {
			if recWin.after, err = plain.scrape(); err != nil {
				return nil, err
			}
		}
	}
	srv.kill()
	srv = nil

	ok := 0
	for _, st := range stats {
		ok += len(st.lat)
	}
	edits := 0
	for _, d := range designs {
		edits += d.edits
	}
	res.printf("designs: %d × %d nets, %d-node trees; %d clients closed loop; window %.2f s; %d edits acknowledged in total",
		len(designs), serveShape.levels*serveShape.width, serveShape.net.nodes, clients, window, edits)
	res.printf("setup_s samples: %v", setups)
	res.printf("recovery_s samples: %v (median %.4f s)", recoveries, median(recoveries))
	res.printf("warm-up: %d calls before the window", len(warm))
	if stats["edit"] == nil || stats["slack"] == nil {
		return nil, fmt.Errorf("the window completed no edit or no slack read")
	}
	if !cfg.trace {
		printRoutes(res, stats)
		edit, err := summarize(stats["edit"].lat, ecoTailQ)
		if err != nil {
			return nil, fmt.Errorf("edit latency: %w", err)
		}
		res.printDist("edit", edit)
		slack, err := summarize(stats["slack"].lat, slackTailQ)
		if err != nil {
			return nil, fmt.Errorf("slack latency: %w", err)
		}
		res.printDist("slack", slack)
		if slack99, err := summarize(stats["slack"].lat, ecoTailQ); err == nil {
			res.printDist("slack", slack99)
		} else {
			res.printf("slack p99 not reported: %v", err)
		}
		res.printf("error_rate             %g (%d of %d)", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
		res.e2e["ops_per_s"] = float64(ok) / window
		res.e2e["p50_ms"] = slack.p50
		res.e2e["tail_ms"] = edit.tail
		res.e2e["peak_rss_mb"] = rss
		return res, nil
	}

	w := promWindow{before, after}
	editOps := float64(stats["edit"].attempted)
	serveLayers(res, w, stats, trees, calls, editOps)
	res.layer["wal.dir_mb"] = walMB
	res.layer["wal.recovery_ms"] = recWin.meanMs("wal_recovery_seconds")
	selfEdit := res.layer["rcserve.edit.self_ms"]
	res.layer["residual.ms"] = selfEdit
	res.layer["residual.share"] = ratio(selfEdit, mean(stats["edit"].lat))
	return res, nil
}
