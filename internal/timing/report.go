package timing

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/jsonw"
)

// EndpointSlack is the timing record of one endpoint: a net output that
// drives no further stage (or carries an explicit requirement).
type EndpointSlack struct {
	Net     string
	Output  string
	Arrival Interval
	// Required is the required arrival time, +Inf when unconstrained.
	Required float64
	// Slack is Required − Arrival.Max (the guaranteed margin), +Inf when
	// unconstrained. Negative means the bounds cannot certify the deadline.
	Slack   float64
	Verdict core.Verdict

	net int // graph index, for path backtracking
}

// Constrained reports whether the endpoint has a finite requirement.
func (e EndpointSlack) Constrained() bool { return !math.IsInf(e.Required, 1) }

// PathHop is one net along a critical path.
type PathHop struct {
	// Net is the net the path traverses; Output is the designated output it
	// leaves through.
	Net    string
	Output string
	// InputArrival brackets when the net's input is driven, OutputArrival
	// when the output crosses the threshold; NetDelay is the per-net
	// [TMin, TMax] between them.
	InputArrival  Interval
	NetDelay      Interval
	OutputArrival Interval
	// StageDelay is the intrinsic delay of the gate driving the next hop
	// (0 on the final hop).
	StageDelay float64
}

// Path is one critical path, hops ordered from a primary-input net to the
// endpoint.
type Path struct {
	Endpoint string
	Slack    float64
	Hops     []PathHop
}

// Report is the chip-level analysis of one design.
type Report struct {
	Design    string
	Threshold float64
	Nets      int
	Stages    int
	Levels    int
	// Endpoints are sorted worst slack first (unconstrained endpoints after
	// all constrained ones, by descending latest arrival).
	Endpoints []EndpointSlack
	// WNS is the worst (smallest) slack over constrained endpoints, +Inf
	// when nothing is constrained. TNS is the total negative slack.
	WNS float64
	TNS float64
	// Paths holds the K most critical paths, worst first.
	Paths []Path
}

// CountByVerdict tallies constrained endpoints per verdict.
func (r *Report) CountByVerdict() (passes, unknown, fails int) {
	for _, e := range r.Endpoints {
		if !e.Constrained() {
			continue
		}
		switch e.Verdict {
		case core.Passes:
			passes++
		case core.Fails:
			fails++
		default:
			unknown++
		}
	}
	return
}

// fmtG renders a float compactly, with +Inf as "-" (unconstrained).
func fmtG(v float64) string {
	if math.IsInf(v, 0) {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// Summary renders the fixed-width chip report: a header, the endpoint table
// (worst slack first) and the critical paths.
func (r *Report) Summary() string {
	var b strings.Builder
	name := r.Design
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "design %s: %d nets, %d stages, %d levels, threshold %g\n",
		name, r.Nets, r.Stages, r.Levels, r.Threshold)
	p, u, f := r.CountByVerdict()
	fmt.Fprintf(&b, "endpoints: %d (%d pass, %d unknown, %d fail)   WNS %s   TNS %s\n\n",
		len(r.Endpoints), p, u, f, fmtG(r.WNS), fmtG(r.TNS))
	fmt.Fprintf(&b, "%-12s %-10s %12s %12s %12s %12s %10s\n",
		"net", "output", "arr.min", "arr.max", "required", "slack", "verdict")
	for _, e := range r.Endpoints {
		fmt.Fprintf(&b, "%-12s %-10s %12s %12s %12s %12s %10s\n",
			e.Net, e.Output, fmtG(e.Arrival.Min), fmtG(e.Arrival.Max),
			fmtG(e.Required), fmtG(e.Slack), e.Verdict)
	}
	for i, p := range r.Paths {
		fmt.Fprintf(&b, "\ncritical path %d -> %s (slack %s):\n", i+1, p.Endpoint, fmtG(p.Slack))
		for _, h := range p.Hops {
			fmt.Fprintf(&b, "  %-12s %-10s in [%s, %s]  +net [%s, %s]  out [%s, %s]",
				h.Net, h.Output,
				fmtG(h.InputArrival.Min), fmtG(h.InputArrival.Max),
				fmtG(h.NetDelay.Min), fmtG(h.NetDelay.Max),
				fmtG(h.OutputArrival.Min), fmtG(h.OutputArrival.Max))
			if h.StageDelay > 0 {
				fmt.Fprintf(&b, "  +gate %s", fmtG(h.StageDelay))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// WriteCSV emits the endpoint table as CSV (header plus one row per
// endpoint, worst slack first). Unconstrained endpoints leave required and
// slack empty.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"net", "output", "arrival_min", "arrival_max", "required", "slack", "verdict"}); err != nil {
		return fmt.Errorf("timing: csv: %w", err)
	}
	g := func(v float64) string {
		if math.IsInf(v, 0) {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	for _, e := range r.Endpoints {
		row := []string{
			e.Net, e.Output,
			g(e.Arrival.Min), g(e.Arrival.Max), g(e.Required), g(e.Slack),
			e.Verdict.String(),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("timing: csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// EncodeJSON writes the report's JSON form to w: the one walk behind
// WriteJSON, MarshalJSON and the rcserve slack envelope. +Inf is not
// representable in JSON, so an unconstrained required, slack or WNS is
// omitted, and a zero stage delay is left out too. The schema:
//
//	{design?, threshold, nets, stages, levels, wns?, tns, passes, unknown,
//	 fails, endpoints: [{net, output, arrival: {min, max}, required?,
//	 slack?, verdict}], paths?: [{endpoint, slack?, hops: [{net, output,
//	 inputArrival, netDelay, outputArrival, stageDelay?}]}]}
//
// An empty endpoint list or hop list is null.
func (r *Report) EncodeJSON(w *jsonw.Writer) {
	p, u, f := r.CountByVerdict()
	w.Object()
	if r.Design != "" {
		w.Key("design").String(r.Design)
	}
	w.Key("threshold").Float(r.Threshold)
	w.Key("nets").Int(int64(r.Nets))
	w.Key("stages").Int(int64(r.Stages))
	w.Key("levels").Int(int64(r.Levels))
	finiteField(w, "wns", r.WNS)
	w.Key("tns").Float(r.TNS)
	w.Key("passes").Int(int64(p))
	w.Key("unknown").Int(int64(u))
	w.Key("fails").Int(int64(f))
	w.Key("endpoints")
	if len(r.Endpoints) == 0 {
		w.Null()
	} else {
		w.Array()
		for i := range r.Endpoints {
			e := &r.Endpoints[i]
			w.Object()
			w.Key("net").String(e.Net)
			w.Key("output").String(e.Output)
			intervalField(w, "arrival", e.Arrival)
			finiteField(w, "required", e.Required)
			finiteField(w, "slack", e.Slack)
			w.Key("verdict").String(e.Verdict.String())
			w.EndObject()
		}
		w.EndArray()
	}
	if len(r.Paths) > 0 {
		w.Key("paths").Array()
		for _, path := range r.Paths {
			w.Object()
			w.Key("endpoint").String(path.Endpoint)
			finiteField(w, "slack", path.Slack)
			w.Key("hops")
			if len(path.Hops) == 0 {
				w.Null()
			} else {
				w.Array()
				for i := range path.Hops {
					h := &path.Hops[i]
					w.Object()
					w.Key("net").String(h.Net)
					w.Key("output").String(h.Output)
					intervalField(w, "inputArrival", h.InputArrival)
					intervalField(w, "netDelay", h.NetDelay)
					intervalField(w, "outputArrival", h.OutputArrival)
					if h.StageDelay != 0 {
						w.Key("stageDelay").Float(h.StageDelay)
					}
					w.EndObject()
				}
				w.EndArray()
			}
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
}

// finitePtr maps +Inf (unconstrained) to nil for the encoding/json wire
// forms (EcoReport, ApplyResult).
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// finiteField writes key: v, leaving the member out when v is ±Inf (an
// unconstrained required time or slack).
func finiteField(w *jsonw.Writer, key string, v float64) {
	if math.IsInf(v, 0) {
		return
	}
	w.Key(key).Float(v)
}

func intervalField(w *jsonw.Writer, key string, iv Interval) {
	w.Key(key).Object()
	w.Key("min").Float(iv.Min)
	w.Key("max").Float(iv.Max)
	w.EndObject()
}

// WriteJSON emits the report as indented JSON with a stable schema (see
// EncodeJSON), streamed to w. A report holding NaN or an infinite arrival
// is refused before anything is written.
func (r *Report) WriteJSON(w io.Writer) error {
	if err := jsonw.Write(w, r.EncodeJSON); err != nil {
		return fmt.Errorf("timing: json: %w", err)
	}
	return nil
}

// MarshalJSON makes the report JSON-safe anywhere it is embedded.
func (r *Report) MarshalJSON() ([]byte, error) {
	return jsonw.Marshal(r.EncodeJSON)
}
