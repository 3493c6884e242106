package timing

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/jsonw"
	"repro/internal/netlist"
	"repro/internal/randnet"
)

// The encoding/json oracle the report encoder is pinned to: the wire structs
// and the wire() conversion Report used to marshal through, kept verbatim.
// +Inf is not representable in JSON, so required and slack ride as pointers
// that are nil for unconstrained endpoints.
type jsonEndpoint struct {
	Net      string   `json:"net"`
	Output   string   `json:"output"`
	Arrival  Interval `json:"arrival"`
	Required *float64 `json:"required,omitempty"`
	Slack    *float64 `json:"slack,omitempty"`
	Verdict  string   `json:"verdict"`
}

type jsonHop struct {
	Net           string   `json:"net"`
	Output        string   `json:"output"`
	InputArrival  Interval `json:"inputArrival"`
	NetDelay      Interval `json:"netDelay"`
	OutputArrival Interval `json:"outputArrival"`
	StageDelay    float64  `json:"stageDelay,omitempty"`
}

type jsonPath struct {
	Endpoint string    `json:"endpoint"`
	Slack    *float64  `json:"slack,omitempty"`
	Hops     []jsonHop `json:"hops"`
}

type jsonReport struct {
	Design    string         `json:"design,omitempty"`
	Threshold float64        `json:"threshold"`
	Nets      int            `json:"nets"`
	Stages    int            `json:"stages"`
	Levels    int            `json:"levels"`
	WNS       *float64       `json:"wns,omitempty"`
	TNS       float64        `json:"tns"`
	Passes    int            `json:"passes"`
	Unknown   int            `json:"unknown"`
	Fails     int            `json:"fails"`
	Endpoints []jsonEndpoint `json:"endpoints"`
	Paths     []jsonPath     `json:"paths,omitempty"`
}

// wire converts the report to its JSON shape.
func (r *Report) wire() jsonReport {
	p, u, f := r.CountByVerdict()
	out := jsonReport{
		Design: r.Design, Threshold: r.Threshold,
		Nets: r.Nets, Stages: r.Stages, Levels: r.Levels,
		WNS: finitePtr(r.WNS), TNS: r.TNS,
		Passes: p, Unknown: u, Fails: f,
	}
	for _, e := range r.Endpoints {
		out.Endpoints = append(out.Endpoints, jsonEndpoint{
			Net: e.Net, Output: e.Output, Arrival: e.Arrival,
			Required: finitePtr(e.Required), Slack: finitePtr(e.Slack),
			Verdict: e.Verdict.String(),
		})
	}
	for _, path := range r.Paths {
		jp := jsonPath{Endpoint: path.Endpoint, Slack: finitePtr(path.Slack)}
		for _, h := range path.Hops {
			jp.Hops = append(jp.Hops, jsonHop{
				Net: h.Net, Output: h.Output,
				InputArrival: h.InputArrival, NetDelay: h.NetDelay,
				OutputArrival: h.OutputArrival, StageDelay: h.StageDelay,
			})
		}
		out.Paths = append(out.Paths, jp)
	}
	return out
}

// wireReport marshals like Report did before the single-pass encoder.
type wireReport struct{ r *Report }

func (o wireReport) MarshalJSON() ([]byte, error) { return json.Marshal(o.r.wire()) }

// oracleIndent is the indented oracle form: an Encoder with two-space
// indent, trailing newline included, as WriteJSON and rcserve wrote.
func oracleIndent(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// slackEnvelope writes rcserve's GET /design/{id}/slack body the way its
// handler does: one indented pass over {gen, id, report}.
func slackEnvelope(id string, gen uint64, r *Report) ([]byte, error) {
	b, err := jsonw.MarshalIndent(func(w *jsonw.Writer) {
		w.Object()
		w.Key("gen").Uint(gen)
		w.Key("id").String(id)
		w.Key("report")
		r.EncodeJSON(w)
		w.EndObject()
	})
	return append(b, '\n'), err
}

// countWriter counts the bytes a failed WriteJSON lets through.
type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// checkReportJSON compares every encoding of r with the oracle byte for
// byte: WriteJSON against the indented Encoder, MarshalJSON against
// json.Marshal, and the slack envelope against an Encoder over the map the
// handler used to build. When the oracle refuses the report (NaN, ±Inf),
// every encoding must fail too, and WriteJSON must write nothing.
func checkReportJSON(t *testing.T, r *Report, label string) {
	t.Helper()
	want, werr := oracleIndent(r.wire())
	var got bytes.Buffer
	err := r.WriteJSON(&got)
	if werr != nil {
		var cw countWriter
		if err := r.WriteJSON(&cw); err == nil || cw.n != 0 {
			t.Fatalf("%s: oracle refuses (%v) but WriteJSON gave err %v after %d bytes", label, werr, err, cw.n)
		}
		if _, err := r.MarshalJSON(); err == nil {
			t.Fatalf("%s: oracle refuses (%v) but MarshalJSON succeeds", label, werr)
		}
		if _, err := slackEnvelope("d", 1, r); err == nil {
			t.Fatalf("%s: oracle refuses (%v) but the slack envelope encodes", label, werr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: WriteJSON: %v", label, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: WriteJSON differs from the oracle at byte %d\n got %q\nwant %q", label, firstDiff(got.Bytes(), want), clip(got.Bytes()), clip(want))
	}
	compact, err := r.MarshalJSON()
	wantCompact, _ := json.Marshal(r.wire())
	if err != nil || !bytes.Equal(compact, wantCompact) {
		t.Fatalf("%s: MarshalJSON (err %v) differs from the oracle at byte %d", label, err, firstDiff(compact, wantCompact))
	}
	for i, id := range []string{"d1", "chip <&> \u2028"} {
		gen := uint64(i) * 1e15
		env, err := slackEnvelope(id, gen, r)
		wantEnv, _ := oracleIndent(map[string]any{"id": id, "gen": gen, "report": wireReport{r}})
		if err != nil || !bytes.Equal(env, wantEnv) {
			t.Fatalf("%s: slack envelope (err %v) differs from the oracle at byte %d", label, err, firstDiff(env, wantEnv))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func clip(b []byte) []byte { return b[:min(len(b), 400)] }

// TestReportJSONOracle pins the report encoder to the encoding/json oracle
// on 240 random designs — mixed constrained and unconstrained endpoints,
// K = 0..5 critical paths, nothing constrained (+Inf WNS) in every fourth —
// plus the shapes analysis never produces: an empty endpoint list (nil and
// empty), a path with nil hops, a negative-zero stage delay and names that
// need escaping.
func TestReportJSONOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	ctx := context.Background()
	for i := range 240 {
		d := randnet.Design(rng, diffDesignConfig(rng))
		th := 0.3 + 0.6*rng.Float64()
		opt := Options{Threshold: th, K: rng.Intn(6), Sequential: true}
		if i%4 != 0 {
			probe, err := Analyze(ctx, d, Options{Threshold: th, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range probe.Endpoints {
				if rng.Intn(2) == 0 {
					d.Requires = append(d.Requires, netlist.Require{
						Net: e.Net, Output: e.Output, Time: e.Arrival.Max * (0.6 + 0.8*rng.Float64()),
					})
				}
			}
			if i%4 == 3 {
				opt.Required = probe.Endpoints[0].Arrival.Max * 0.9
			}
		}
		rep, err := Analyze(ctx, d, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 && !math.IsInf(rep.WNS, 1) {
			t.Fatalf("design %d: unconstrained design has WNS %v", i, rep.WNS)
		}
		if i%5 == 0 {
			rep.Design = ""
		}
		checkReportJSON(t, rep, fmt.Sprintf("design %d", i))
	}

	edge := []*Report{
		{},
		{Design: "empty", Endpoints: []EndpointSlack{}, WNS: math.Inf(1)},
		{Design: `q"uo\te<&>`, Threshold: 0.5, WNS: -1, TNS: -1,
			Endpoints: []EndpointSlack{{Net: "n\x01", Output: "o<", Arrival: Interval{1e-7, 1e21}, Required: 3, Slack: -1, Verdict: core.Fails}},
			Paths: []Path{
				{Endpoint: "n/o", Slack: math.Inf(1)},
				{Endpoint: "n/o", Slack: -1, Hops: []PathHop{{Net: "\xff", StageDelay: math.Copysign(0, -1)}, {Net: "b", StageDelay: 5e-324}}},
			}},
	}
	for i, rep := range edge {
		checkReportJSON(t, rep, fmt.Sprintf("edge %d", i))
	}
}

// FuzzReportJSONOracle feeds arbitrary names and floats through a report —
// escapes, control characters, invalid UTF-8, U+2028/2029, ±0, subnormals,
// the 1e-6 and 1e21 format cut-overs, NaN and ±Inf — and checks every
// encoding against the oracle as TestReportJSONOracle does.
func FuzzReportJSONOracle(f *testing.F) {
	f.Add("chip", "l0n1", "o", 0.5, 1.0, 2.0, 3.0, int64(1))
	f.Add(`<&>"\`, "\x00\x1f\x7f", "\u2028\u2029", 1e-6, 9.99999e-7, 1e21, 9.99999999e20, int64(0))
	f.Add("", "\xff\xfe", "é", math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, math.MaxFloat64, int64(-7))
	f.Add("x", "n", "o", math.NaN(), 1.0, 2.0, 3.0, int64(2))
	f.Add("x", "n", "o", 1.0, math.Inf(1), math.Inf(-1), 3.0, int64(3))
	f.Add("x", "n", "o", -1e-300, 1e300, -1.5e-7, 123456789.125, int64(4))
	f.Fuzz(func(t *testing.T, design, net, output string, a, b, c, d float64, k int64) {
		verdicts := []core.Verdict{core.Fails, core.Unknown, core.Passes}
		rep := &Report{
			Design: design, Threshold: a, Nets: int(k), Stages: int(k >> 8), Levels: -int(k),
			WNS: b, TNS: c,
			Endpoints: []EndpointSlack{
				{Net: net, Output: output, Arrival: Interval{a, b}, Required: c, Slack: d, Verdict: verdicts[uint64(k)%3]},
				{Net: output, Output: net, Arrival: Interval{d, c}, Required: math.Inf(1), Slack: math.Inf(1), Verdict: core.Passes},
			},
			Paths: []Path{{Endpoint: net + "/" + output, Slack: d, Hops: []PathHop{
				{Net: net, Output: output, InputArrival: Interval{a, b}, NetDelay: Interval{c, d}, OutputArrival: Interval{b, c}, StageDelay: a},
				{Net: design, Output: net, StageDelay: d},
			}}},
		}
		if k%2 == 0 {
			rep.Paths = append(rep.Paths, Path{Endpoint: output, Slack: math.Inf(1)})
		}
		checkReportJSON(t, rep, "fuzz")
	})
}
