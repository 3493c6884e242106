package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rcdelay "repro"
)

func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decode %s %s response: %v", method, url, err)
	}
	return resp.StatusCode, decoded
}

// treeDesign wraps a single-tree deck as the one-net design "x" — the form
// in which rcserve edits a lone tree.
func treeDesign(deck string) string { return ".net x\n" + deck + ".endnet\n" }

// openTree mounts deck as a one-net design and returns its id.
func openTree(t *testing.T, ts *httptest.Server, deck string) string {
	t.Helper()
	status, body := post(t, ts.URL+"/design", `{"design": `+jsonString(treeDesign(deck))+`}`)
	if status != http.StatusCreated {
		t.Fatalf("create one-net design: status %d: %v", status, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("create one-net design: no id in %v", body)
	}
	return id
}

// boundsTable flattens the outputs of a bounds or /analyze answer into
// "output.field" keys — "n2.td", "n2.delay1.tmax", "n2.voltage0.vmin" — so
// two answers compare value by value.
func boundsTable(t *testing.T, body map[string]any) map[string]float64 {
	t.Helper()
	outs, ok := body["outputs"].([]any)
	if !ok {
		t.Fatalf("no outputs in %v", body)
	}
	tab := map[string]float64{}
	for _, raw := range outs {
		o := raw.(map[string]any)
		name := o["name"].(string)
		for k, v := range o["times"].(map[string]any) {
			tab[name+"."+k] = v.(float64)
		}
		for _, table := range []string{"delay", "voltage"} {
			rows, _ := o[table].([]any)
			for i, row := range rows {
				for k, v := range row.(map[string]any) {
					tab[fmt.Sprintf("%s.%s%d.%s", name, table, i, k)] = v.(float64)
				}
			}
		}
	}
	return tab
}

// assertTablesClose requires got to hold exactly want's keys, each within
// 1e-9 relative.
func assertTablesClose(t *testing.T, what string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values %v, want %d %v", what, len(got), got, len(want), want)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || math.Abs(g-w) > 1e-9*math.Max(math.Abs(w), 1) {
			t.Errorf("%s %s = %v, want %g", what, k, got[k], w)
		}
	}
}

// TestSessionEditMatchesReanalysis is the single-tree editing core
// correctness check: edit R1 and C2 of a one-net design in place, then
// compare its bounds read — times, and the delay and voltage tables — with a
// from-scratch /analyze of the equivalently modified deck.
func TestSessionEditMatchesReanalysis(t *testing.T) {
	_, ts := testServer(t)
	id := openTree(t, ts, fig7Deck)

	status, body := post(t, ts.URL+"/design/"+id+"/edit",
		`{"edits": [{"op": "setR", "net": "x", "node": "n1", "r": 20},
		            {"op": "setC", "net": "x", "node": "b", "c": 3.5}]}`)
	if status != http.StatusOK {
		t.Fatalf("edit: status %d: %v", status, body)
	}
	if got := body["applied"].(float64); got != 2 {
		t.Fatalf("applied = %v, want 2", got)
	}

	edited := strings.Replace(fig7Deck, "R1 in n1 15", "R1 in n1 20", 1)
	edited = strings.Replace(edited, "C2 b 0 7", "C2 b 0 3.5", 1)
	for _, q := range []struct{ query, tables string }{
		{"", ""},
		{"&thresholds=0.5,0.9&times=100", `, "thresholds": [0.5, 0.9], "times": [100]`},
	} {
		status, bounds := doJSON(t, http.MethodGet, ts.URL+"/design/"+id+"/bounds?net=x"+q.query, "")
		if status != http.StatusOK {
			t.Fatalf("bounds%s: status %d: %v", q.query, status, bounds)
		}
		status, ref := post(t, ts.URL+"/analyze", `{"netlist": `+jsonString(edited)+q.tables+`}`)
		if status != http.StatusOK {
			t.Fatalf("reference analyze: status %d: %v", status, ref)
		}
		assertTablesClose(t, "bounds"+q.query, boundsTable(t, bounds), boundsTable(t, ref))
	}
}

// TestSessionStructuralEdits drives grow, addOutput and prune through a
// one-net design. The second batch is a graft spelled as grow/addC/addOutput
// edits; the reference builds the same network with the library's Graft.
func TestSessionStructuralEdits(t *testing.T) {
	_, ts := testServer(t)
	id := openTree(t, ts, fig7Deck)

	status, body := post(t, ts.URL+"/design/"+id+"/edit",
		`{"edits": [
			{"op": "grow", "net": "x", "parent": "b", "name": "tap", "kind": "line", "r": 4, "c": 2},
			{"op": "addC", "net": "x", "node": "tap", "c": 1.5},
			{"op": "addOutput", "net": "x", "node": "tap"},
			{"op": "scaleDriver", "net": "x", "factor": 1.25}
		]}`)
	if status != http.StatusOK {
		t.Fatalf("structural edit: status %d: %v", status, body)
	}
	if got := body["applied"].(float64); got != 4 {
		t.Fatalf("applied = %v, want 4", got)
	}
	status, bounds := doJSON(t, http.MethodGet, ts.URL+"/design/"+id+"/bounds?net=x", "")
	if status != http.StatusOK {
		t.Fatalf("bounds: %d: %v", status, bounds)
	}
	if outs := bounds["outputs"].([]any); len(outs) != 2 {
		t.Fatalf("want 2 outputs after addOutput, got %v", outs)
	}

	// Hang ".input gin / R9 gin gfar 5 / C9 gfar 0 1" under n1 through a 2 Ω
	// resistor, tap its far end, then prune the original tap branch.
	status, body = post(t, ts.URL+"/design/"+id+"/edit",
		`{"edits": [
			{"op": "grow", "net": "x", "parent": "n1", "name": "gin", "kind": "resistor", "r": 2},
			{"op": "grow", "net": "x", "parent": "gin", "name": "gfar", "kind": "resistor", "r": 5},
			{"op": "addC", "net": "x", "node": "gfar", "c": 1},
			{"op": "addOutput", "net": "x", "node": "gfar"},
			{"op": "prune", "net": "x", "node": "tap"}
		]}`)
	if status != http.StatusOK {
		t.Fatalf("graft-as-grow edit: status %d: %v", status, body)
	}
	if got := body["applied"].(float64); got != 5 {
		t.Fatalf("applied = %v, want 5", got)
	}

	// The design summary and the net's outputs reflect the new shape.
	status, info := doJSON(t, http.MethodGet, ts.URL+"/design/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("info: %d: %v", status, info)
	}
	if info["edits"].(float64) != 9 {
		t.Errorf("edits counter = %v, want 9", info["edits"])
	}
	_, bounds = doJSON(t, http.MethodGet, ts.URL+"/design/"+id+"/bounds?net=x", "")
	var names []string
	for _, o := range bounds["outputs"].([]any) {
		names = append(names, o.(map[string]any)["name"].(string))
	}
	if got := strings.Join(names, " "); !strings.Contains(got, "gfar") || strings.Contains(got, "tap") {
		t.Fatalf("outputs after graft+prune = %v", names)
	}

	// The design's answer equals the library's grafted network.
	status, bounds = doJSON(t, http.MethodGet, ts.URL+"/design/"+id+"/bounds?net=x&output=gfar", "")
	if status != http.StatusOK {
		t.Fatalf("bounds: %d: %v", status, bounds)
	}
	sessTD := bounds["outputs"].([]any)[0].(map[string]any)["times"].(map[string]any)["td"].(float64)
	want := buildStructuralReference(t)
	if math.Abs(sessTD-want) > 1e-9*want {
		t.Errorf("grafted TD = %g, want %g", sessTD, want)
	}
}

// buildStructuralReference reproduces TestSessionStructuralEdits' final
// network with the library directly and returns TD at gfar.
func buildStructuralReference(t *testing.T) float64 {
	t.Helper()
	tree, err := rcdelay.ParseNetlist(fig7Deck)
	if err != nil {
		t.Fatal(err)
	}
	et := rcdelay.NewEditTree(tree)
	n1, _ := et.Lookup("n1")
	b, _ := et.Lookup("b")
	tap, err := et.Grow(b, "tap", rcdelay.EdgeLine, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := et.AddCapacitance(tap, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := et.AddOutput(tap); err != nil {
		t.Fatal(err)
	}
	if err := et.ScaleDriver(1.25); err != nil {
		t.Fatal(err)
	}
	sub, err := rcdelay.ParseNetlist(".input gin\nR9 gin gfar 5\nC9 gfar 0 1\n.output gfar\n")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := et.Graft(n1, "", rcdelay.EdgeResistor, 2, 0, sub)
	if err != nil {
		t.Fatal(err)
	}
	if err := et.AddOutput(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if err := et.Prune(tap); err != nil {
		t.Fatal(err)
	}
	gfar, _ := et.Lookup("gfar")
	tm, err := et.Times(gfar)
	if err != nil {
		t.Fatal(err)
	}
	return tm.TD
}

// TestSessionEditErrors: bad edits stop the batch, report position, and
// leave the design usable; malformed requests are rejected.
func TestSessionEditErrors(t *testing.T) {
	_, ts := testServer(t)
	id := openTree(t, ts, fig7Deck)

	status, body := post(t, ts.URL+"/design/"+id+"/edit",
		`{"edits": [{"op": "setR", "net": "x", "node": "n1", "r": 30},
		            {"op": "setR", "net": "x", "node": "ghost", "r": 1},
		            {"op": "setR", "net": "x", "node": "n1", "r": 40}]}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %v", status, body)
	}
	if got := body["applied"].(float64); got != 1 {
		t.Errorf("applied = %v, want 1 (stop at first failure)", got)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "ghost") {
		t.Errorf("error %q does not name the bad node", msg)
	}

	for _, bad := range []string{
		`{"edits": []}`,
		`{"edits": [{"op": "warp", "net": "x", "node": "n1"}]}`,
		`{"edits": [{"op": "setR", "net": "x", "node": "n1"}]}`, // missing r
		`not json`,
	} {
		status, _ := post(t, ts.URL+"/design/"+id+"/edit", bad)
		if status < 400 {
			t.Errorf("edit %q: status %d, want an error", bad, status)
		}
	}

	// The design survived all of that.
	status, _ = doJSON(t, http.MethodGet, ts.URL+"/design/"+id+"/bounds?net=x", "")
	if status != http.StatusOK {
		t.Errorf("design unusable after bad edits: %d", status)
	}
	// A bounds read must name a net of the design, and output a node of it.
	for _, query := range []string{"", "net=ghost", "net=x&output=ghost"} {
		if status, _ := doJSON(t, http.MethodGet, ts.URL+"/design/"+id+"/bounds?"+query, ""); status != http.StatusUnprocessableEntity {
			t.Errorf("bounds?%s: status %d, want 422", query, status)
		}
	}

	// Unknown designs 404 everywhere.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/design/nope"},
		{http.MethodGet, "/design/nope/bounds?net=x"},
		{http.MethodPost, "/design/nope/edit"},
		{http.MethodDelete, "/design/nope"},
	} {
		body := ""
		if probe.method == http.MethodPost {
			body = `{"edits": [{"op": "scaleDriver", "net": "x", "factor": 2}]}`
		}
		if status, _ := doJSON(t, probe.method, ts.URL+probe.path, body); status != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, probe.path, status)
		}
	}
}

// TestSessionDelete closes a one-net design explicitly.
func TestSessionDelete(t *testing.T) {
	_, ts := testServer(t)
	id := openTree(t, ts, fig7Deck)
	if status, _ := doJSON(t, http.MethodDelete, ts.URL+"/design/"+id, ""); status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/design/"+id, ""); status != http.StatusNotFound {
		t.Errorf("deleted design still answers: %d", status)
	}
}

// TestSessionTTLAndEviction: one-net designs obey the store's capacity and
// idle TTL — a read refreshes LRU order, the least recently used design is
// evicted at capacity, and idle designs expire on access and on sweep.
func TestSessionTTLAndEviction(t *testing.T) {
	srv, ts := testServer(t)
	var clock atomic.Int64 // unix nanoseconds; handlers read it concurrently
	clock.Store(time.Unix(1000, 0).UnixNano())
	srv.designs = newDesignStore(storeConfig{ttl: time.Minute, max: 2})
	srv.designs.now = func() time.Time { return time.Unix(0, clock.Load()) }
	advance := func(d time.Duration) { clock.Add(int64(d)) }
	alive := func(id string) bool {
		t.Helper()
		status, _ := doJSON(t, http.MethodGet, ts.URL+"/design/"+id, "")
		return status == http.StatusOK
	}

	a := openTree(t, ts, fig7Deck)
	advance(30 * time.Second)
	b := openTree(t, ts, fig7Deck)
	advance(time.Second)
	if !alive(a) { // touches a: b is now the LRU entry
		t.Fatal("session a should be alive")
	}
	// a was just touched; c's creation must evict the LRU entry, b.
	c := openTree(t, ts, fig7Deck)
	if alive(b) {
		t.Error("LRU session b should have been evicted at capacity")
	}
	if !alive(c) {
		t.Error("session c should be alive")
	}
	// Idle past the TTL expires on access...
	advance(2 * time.Minute)
	if alive(a) {
		t.Error("session a should have expired")
	}
	// ...and on sweep.
	srv.designs.sweep()
	stats := srv.designs.stats()
	if stats["active"].(int) != 0 {
		t.Errorf("active = %v after sweep, want 0", stats["active"])
	}
	if stats["evicted"].(int64) != 1 || stats["expired"].(int64) != 2 {
		t.Errorf("counters = %v", stats)
	}
}

// TestBoundsRejectsNonFinite: NaN/Inf parse as float64 but are meaningless
// as thresholds or times; the handler must answer 422, not accept them (the
// old parseFloats let NaN through into the bound tables) and not 400 (the
// number was syntactically fine).
func TestBoundsRejectsNonFinite(t *testing.T) {
	_, ts := testServer(t)
	id := openTree(t, ts, fig7Deck)

	for _, tc := range []struct {
		query string
		want  int
	}{
		{"thresholds=NaN", http.StatusUnprocessableEntity},
		{"thresholds=0.5,Inf", http.StatusUnprocessableEntity},
		{"times=-Inf", http.StatusUnprocessableEntity},
		{"times=1e309", http.StatusUnprocessableEntity}, // overflows to +Inf
		{"thresholds=0.5&times=100", http.StatusOK},
		{"thresholds=zorch", http.StatusBadRequest}, // not a number at all
	} {
		status, body := doJSON(t, http.MethodGet, ts.URL+"/design/"+id+"/bounds?net=x&"+tc.query, "")
		if status != tc.want {
			t.Errorf("bounds?%s = %d, want %d: %v", tc.query, status, tc.want, body)
		}
	}
}

// TestBoundsRejectsThresholdAtOrAboveOne checks a threshold the output never
// provably crosses (TMax = +Inf, which JSON cannot carry) is a 422 on
// bounds and a per-job error on /analyze, not a 200 with an empty body.
func TestBoundsRejectsThresholdAtOrAboveOne(t *testing.T) {
	_, ts := testServer(t)
	id := openTree(t, ts, fig7Deck)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"thresholds=1", http.StatusUnprocessableEntity},
		{"thresholds=0.5,1.5&times=100", http.StatusUnprocessableEntity},
		{"thresholds=0.999,0,-1&times=100", http.StatusOK},
	} {
		status, body := doJSON(t, http.MethodGet, ts.URL+"/design/"+id+"/bounds?net=x&"+tc.query, "")
		if status != tc.want {
			t.Errorf("bounds?%s = %d, want %d: %v", tc.query, status, tc.want, body)
		}
		if msg, _ := body["error"].(string); tc.want != http.StatusOK && !strings.Contains(msg, "below 1") {
			t.Errorf("bounds?%s error = %q", tc.query, msg)
		}
	}

	status, body := post(t, ts.URL+"/analyze", `{"netlist": `+jsonString(fig7Deck)+`, "thresholds": [1]}`)
	if msg, _ := body["error"].(string); status != http.StatusUnprocessableEntity || !strings.Contains(msg, "below 1") {
		t.Errorf("analyze thresholds [1] = %d: %v", status, body)
	}
	status, body = post(t, ts.URL+"/analyze", `{"jobs": [{"netlist": `+jsonString(fig7Deck)+`, "thresholds": [0.5]}, {"netlist": `+jsonString(fig7Deck)+`, "thresholds": [0.5, 1]}]}`)
	results, _ := body["results"].([]any)
	if status != http.StatusOK || len(results) != 2 {
		t.Fatalf("analyze batch = %d: %v", status, body)
	}
	if first := results[0].(map[string]any); first["error"] != nil || first["outputs"] == nil {
		t.Errorf("valid job = %v", first)
	}
	if msg, _ := results[1].(map[string]any)["error"].(string); !strings.Contains(msg, "below 1") {
		t.Errorf("threshold-1 job error = %q", msg)
	}
}
