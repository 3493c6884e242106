package mcd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/jsonw"
	"repro/internal/netlist"
	"repro/internal/randnet"
)

// The encoding/json oracle the report encoder is pinned to: the wire structs
// and the wire() conversion Report used to marshal through, kept verbatim.
// +Inf is not representable in JSON, so unconstrained requireds/slacks ride
// as nil pointers (the timing.Report convention).
type jsonEndpointDist struct {
	Net            string   `json:"net"`
	Output         string   `json:"output"`
	Required       *float64 `json:"required,omitempty"`
	NominalArrival float64  `json:"nominalArrival"`
	NominalSlack   *float64 `json:"nominalSlack,omitempty"`
	Arrival        Dist     `json:"arrival"`
	Slack          *Dist    `json:"slack,omitempty"`
	Criticality    float64  `json:"criticality"`
}

type jsonCornerResult struct {
	Corner     Corner             `json:"corner"`
	NominalWNS *float64           `json:"nominalWns,omitempty"`
	NominalTNS float64            `json:"nominalTns"`
	WNS        *Dist              `json:"wns,omitempty"`
	TNS        Dist               `json:"tns"`
	Endpoints  []jsonEndpointDist `json:"endpoints"`
}

type jsonReport struct {
	Design      string             `json:"design,omitempty"`
	Threshold   float64            `json:"threshold"`
	Samples     int                `json:"samples"`
	Seed        int64              `json:"seed"`
	Variation   Variation          `json:"variation"`
	Clipped     int                `json:"clipped"`
	WorstCorner string             `json:"worstCorner,omitempty"`
	Corners     []jsonCornerResult `json:"corners"`
}

// finitePtr maps +Inf (unconstrained) to nil for the JSON wire form.
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func (r *Report) wire() jsonReport {
	out := jsonReport{
		Design: r.Design, Threshold: r.Threshold,
		Samples: r.Samples, Seed: r.Seed,
		Variation: r.Variation, Clipped: r.Clipped,
		WorstCorner: r.WorstCorner,
	}
	for i := range r.Corners {
		cr := &r.Corners[i]
		jc := jsonCornerResult{
			Corner:     cr.Corner,
			NominalWNS: finitePtr(cr.NominalWNS),
			NominalTNS: cr.NominalTNS,
			WNS:        cr.WNS,
			TNS:        cr.TNS,
		}
		for _, e := range cr.Endpoints {
			jc.Endpoints = append(jc.Endpoints, jsonEndpointDist{
				Net: e.Net, Output: e.Output,
				Required:       finitePtr(e.Required),
				NominalArrival: e.NominalArrival,
				NominalSlack:   finitePtr(e.NominalSlack),
				Arrival:        e.Arrival,
				Slack:          e.Slack,
				Criticality:    e.Criticality,
			})
		}
		out.Corners = append(out.Corners, jc)
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

// cornersEnvelope writes rcserve's POST /design/{id}/corners body the way
// its handler does: one indented pass over {id, gen, report}.
func cornersEnvelope(id string, gen uint64, r *Report) ([]byte, error) {
	b, err := jsonw.MarshalIndent(func(w *jsonw.Writer) {
		w.Object()
		w.Key("id").String(id)
		w.Key("gen").Uint(gen)
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
// json.Marshal, and the corners envelope against an Encoder over the
// response struct the handler used to build. When the oracle refuses the
// report (NaN, ±Inf), every encoding must fail too, and WriteJSON must write
// nothing.
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
		if _, err := cornersEnvelope("d", 1, r); err == nil {
			t.Fatalf("%s: oracle refuses (%v) but the corners envelope encodes", label, werr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: WriteJSON: %v", label, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: WriteJSON differs from the oracle\n got %q\nwant %q", label, got.Bytes(), want)
	}
	compact, err := r.MarshalJSON()
	wantCompact, _ := json.Marshal(r.wire())
	if err != nil || !bytes.Equal(compact, wantCompact) {
		t.Fatalf("%s: MarshalJSON (err %v) differs from the oracle\n got %q\nwant %q", label, err, compact, wantCompact)
	}
	type envelope struct {
		ID     string     `json:"id"`
		Gen    uint64     `json:"gen"`
		Report wireReport `json:"report"`
	}
	for i, id := range []string{"d1", "chip <&>  "} {
		gen := uint64(i) * 1e15
		env, err := cornersEnvelope(id, gen, r)
		wantEnv, _ := oracleIndent(envelope{ID: id, Gen: gen, Report: wireReport{r}})
		if err != nil || !bytes.Equal(env, wantEnv) {
			t.Fatalf("%s: corners envelope (err %v) differs from the oracle\n got %q\nwant %q", label, err, env, wantEnv)
		}
	}
}

// TestReportJSONOracle pins the corner-report encoder to the encoding/json
// oracle on 200 random designs — mixed constrained and unconstrained
// endpoints, nothing constrained (no WNS distribution, +Inf nominal WNS) in
// every fourth, with and without per-net derating — plus the shapes
// analysis never produces: no corners, a corner without endpoints, and
// names that need escaping.
func TestReportJSONOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	ctx := context.Background()
	for i := range 200 {
		cfg := randnet.DefaultDesignConfig(1+rng.Intn(3), 1+rng.Intn(3))
		cfg.Net = randnet.DefaultConfig(4 + rng.Intn(8))
		d := randnet.Design(rng, cfg)
		th := 0.3 + 0.6*rng.Float64()
		opt := Options{Samples: 1 + rng.Intn(6), Seed: rng.Int63n(100) - 50, Threshold: th, Workers: 1}
		if rng.Intn(2) == 0 {
			opt.Variation = Variation{RSigma: 0.2 * rng.Float64(), CSigma: 0.2 * rng.Float64()}
		}
		if i%3 == 0 {
			opt.Corners = []Corner{{Name: "slow\u2028", RScale: 1.3, CScale: 1.2}, {Name: "t<y>p", RScale: 1, CScale: 1}}
		}
		if i%4 != 0 {
			probe, err := Analyze(ctx, d, Options{Samples: 1, Threshold: th, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range probe.Corners[0].Endpoints {
				if rng.Intn(2) == 0 {
					d.Requires = append(d.Requires, netlist.Require{
						Net: e.Net, Output: e.Output, Time: e.NominalArrival * (0.6 + 0.8*rng.Float64()),
					})
				}
			}
			if i%4 == 3 {
				opt.Required = probe.Corners[0].Endpoints[0].NominalArrival * 0.9
			}
		}
		rep, err := Analyze(ctx, d, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 && rep.Corners[0].WNS != nil {
			t.Fatalf("design %d: unconstrained design has a WNS distribution", i)
		}
		if i%5 == 0 {
			rep.Design = ""
		}
		checkReportJSON(t, rep, fmt.Sprintf("design %d", i))
	}

	edge := []*Report{
		{},
		{Design: `q"uo\te`, Corners: []CornerResult{{Corner: Corner{Name: "\xff"}, NominalWNS: math.Inf(1)}}},
		{Corners: []CornerResult{{Endpoints: []EndpointDist{{Net: "n\x01", Required: math.Inf(1), NominalSlack: math.Inf(-1), Criticality: math.Copysign(0, -1)}}}}},
	}
	for i, rep := range edge {
		checkReportJSON(t, rep, fmt.Sprintf("edge %d", i))
	}
}

// FuzzReportJSONOracle feeds arbitrary names and floats through a corner
// report — escapes, control characters, invalid UTF-8, U+2028/2029, ±0,
// subnormals, the 1e-6 and 1e21 format cut-overs, NaN and ±Inf — and checks
// every encoding against the oracle as TestReportJSONOracle does.
func FuzzReportJSONOracle(f *testing.F) {
	f.Add("chip", "typ", "l0n1", 0.5, 1.0, 2.0, 3.0, int64(1))
	f.Add(`<&>"\`, "\u2029", "\x00\x1f\x7f", 1e-6, 9.99999e-7, 1e21, 9.99999999e20, int64(0))
	f.Add("", "\xff\xfe", "é", math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, math.MaxFloat64, int64(-7))
	f.Add("x", "c", "n", math.NaN(), 1.0, 2.0, 3.0, int64(2))
	f.Add("x", "c", "n", 1.0, math.Inf(1), math.Inf(-1), 3.0, int64(3))
	f.Fuzz(func(t *testing.T, design, corner, net string, a, b, c, d float64, k int64) {
		dist := Dist{Mean: a, Std: b, Min: c, Max: d, P50: a, P95: b, P99: c}
		rep := &Report{
			Design: design, Threshold: a, Samples: int(k), Seed: k, Clipped: int(k >> 3),
			Variation: Variation{RSigma: b, CSigma: c}, WorstCorner: corner,
			Corners: []CornerResult{{
				Corner: Corner{Name: corner, RScale: c, CScale: d}, NominalWNS: a, NominalTNS: b, TNS: dist,
				Endpoints: []EndpointDist{
					{Net: net, Output: corner, Required: c, NominalArrival: d, NominalSlack: a, Arrival: dist, Slack: &dist, Criticality: b},
					{Net: corner, Output: net, Required: math.Inf(1), NominalArrival: a, NominalSlack: math.Inf(1), Arrival: dist},
				},
			}},
		}
		if k%2 == 0 {
			rep.Corners[0].WNS = &dist
			rep.Corners = append(rep.Corners, CornerResult{Corner: Corner{Name: net}, NominalWNS: math.Inf(1)})
		}
		checkReportJSON(t, rep, "fuzz")
	})
}
