package mcd

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/jsonw"
)

// fmtG renders a float compactly, with +Inf as "-" (unconstrained).
func fmtG(v float64) string {
	if math.IsInf(v, 0) {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// Summary renders the fixed-width multi-corner report: a header, then per
// corner the nominal and sampled WNS/TNS and the endpoint table (worst
// nominal slack first). For slack the informative tail is the low one —
// Min is the worst draw seen — while criticality says where the WNS lives.
func (r *Report) Summary() string {
	var b strings.Builder
	name := r.Design
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "design %s: %d corners, %d samples/corner, threshold %g, seed %d\n",
		name, len(r.Corners), r.Samples, r.Threshold, r.Seed)
	fmt.Fprintf(&b, "variation: rSigma %g, cSigma %g", r.Variation.RSigma, r.Variation.CSigma)
	if r.Clipped > 0 {
		fmt.Fprintf(&b, " (%d clipped draws: low tail truncated, results biased up)", r.Clipped)
	}
	b.WriteByte('\n')
	if r.WorstCorner != "" {
		fmt.Fprintf(&b, "worst corner: %s\n", r.WorstCorner)
	}
	for i := range r.Corners {
		cr := &r.Corners[i]
		fmt.Fprintf(&b, "\ncorner %s (R x%g, C x%g): nominal WNS %s TNS %s",
			cr.Corner.Name, cr.Corner.RScale, cr.Corner.CScale,
			fmtG(cr.NominalWNS), fmtG(cr.NominalTNS))
		if cr.WNS != nil {
			fmt.Fprintf(&b, "   WNS mean %s std %s min %s", fmtG(cr.WNS.Mean), fmtG(cr.WNS.Std), fmtG(cr.WNS.Min))
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "%-12s %-10s %10s %10s %10s %10s %10s %10s %6s\n",
			"net", "output", "required", "nom.slack", "slk.mean", "slk.std", "slk.min", "arr.mean", "crit%")
		for _, e := range cr.Endpoints {
			mean, std, min := "-", "-", "-"
			if e.Slack != nil {
				mean, std, min = fmtG(e.Slack.Mean), fmtG(e.Slack.Std), fmtG(e.Slack.Min)
			}
			fmt.Fprintf(&b, "%-12s %-10s %10s %10s %10s %10s %10s %10s %6.1f\n",
				e.Net, e.Output, fmtG(e.Required), fmtG(e.NominalSlack),
				mean, std, min, fmtG(e.Arrival.Mean), 100*e.Criticality)
		}
	}
	return b.String()
}

// WriteCSV emits one row per corner × endpoint. Unconstrained endpoints
// leave the required/slack columns empty.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"corner", "net", "output", "required", "nominal_slack", "criticality",
		"arrival_mean", "arrival_std", "arrival_p50", "arrival_p95", "arrival_p99",
		"slack_mean", "slack_std", "slack_min", "slack_p50",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("mcd: csv: %w", err)
	}
	g := func(v float64) string {
		if math.IsInf(v, 0) {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	for i := range r.Corners {
		cr := &r.Corners[i]
		for _, e := range cr.Endpoints {
			row := []string{
				cr.Corner.Name, e.Net, e.Output,
				g(e.Required), g(e.NominalSlack),
				strconv.FormatFloat(e.Criticality, 'g', -1, 64),
				g(e.Arrival.Mean), g(e.Arrival.Std), g(e.Arrival.P50), g(e.Arrival.P95), g(e.Arrival.P99),
			}
			if e.Slack != nil {
				row = append(row, g(e.Slack.Mean), g(e.Slack.Std), g(e.Slack.Min), g(e.Slack.P50))
			} else {
				row = append(row, "", "", "", "")
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("mcd: csv: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// EncodeJSON writes the report's JSON form to w: the one walk behind
// WriteJSON, MarshalJSON and the rcserve corners envelope. +Inf is not
// representable in JSON, so an unconstrained required, nominal slack or
// nominal WNS is omitted, as are the slack and WNS distributions that do not
// exist (the timing.Report convention). The schema:
//
//	{design?, threshold, samples, seed, variation: {rSigma, cSigma}, clipped,
//	 worstCorner?, corners: [{corner: {name, rScale, cScale}, nominalWns?,
//	 nominalTns, wns?, tns, endpoints: [{net, output, required?,
//	 nominalArrival, nominalSlack?, arrival, slack?, criticality}]}]}
//
// where wns, tns, arrival and slack are {mean, std, min, max, p50, p95,
// p99}. An empty corner or endpoint list is null.
func (r *Report) EncodeJSON(w *jsonw.Writer) {
	w.Object()
	if r.Design != "" {
		w.Key("design").String(r.Design)
	}
	w.Key("threshold").Float(r.Threshold)
	w.Key("samples").Int(int64(r.Samples))
	w.Key("seed").Int(r.Seed)
	w.Key("variation").Object()
	w.Key("rSigma").Float(r.Variation.RSigma)
	w.Key("cSigma").Float(r.Variation.CSigma)
	w.EndObject()
	w.Key("clipped").Int(int64(r.Clipped))
	if r.WorstCorner != "" {
		w.Key("worstCorner").String(r.WorstCorner)
	}
	w.Key("corners")
	if len(r.Corners) == 0 {
		w.Null()
	} else {
		w.Array()
		for i := range r.Corners {
			encodeCorner(w, &r.Corners[i])
		}
		w.EndArray()
	}
	w.EndObject()
}

func encodeCorner(w *jsonw.Writer, cr *CornerResult) {
	w.Object()
	w.Key("corner").Object()
	w.Key("name").String(cr.Corner.Name)
	w.Key("rScale").Float(cr.Corner.RScale)
	w.Key("cScale").Float(cr.Corner.CScale)
	w.EndObject()
	finiteField(w, "nominalWns", cr.NominalWNS)
	w.Key("nominalTns").Float(cr.NominalTNS)
	if cr.WNS != nil {
		distField(w, "wns", cr.WNS)
	}
	distField(w, "tns", &cr.TNS)
	w.Key("endpoints")
	if len(cr.Endpoints) == 0 {
		w.Null()
	} else {
		w.Array()
		for i := range cr.Endpoints {
			e := &cr.Endpoints[i]
			w.Object()
			w.Key("net").String(e.Net)
			w.Key("output").String(e.Output)
			finiteField(w, "required", e.Required)
			w.Key("nominalArrival").Float(e.NominalArrival)
			finiteField(w, "nominalSlack", e.NominalSlack)
			distField(w, "arrival", &e.Arrival)
			if e.Slack != nil {
				distField(w, "slack", e.Slack)
			}
			w.Key("criticality").Float(e.Criticality)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
}

// finiteField writes key: v, leaving the member out when v is ±Inf
// (unconstrained).
func finiteField(w *jsonw.Writer, key string, v float64) {
	if math.IsInf(v, 0) {
		return
	}
	w.Key(key).Float(v)
}

func distField(w *jsonw.Writer, key string, d *Dist) {
	w.Key(key).Object()
	w.Key("mean").Float(d.Mean)
	w.Key("std").Float(d.Std)
	w.Key("min").Float(d.Min)
	w.Key("max").Float(d.Max)
	w.Key("p50").Float(d.P50)
	w.Key("p95").Float(d.P95)
	w.Key("p99").Float(d.P99)
	w.EndObject()
}

// WriteJSON emits the report as indented JSON with a stable schema (see
// EncodeJSON), streamed to w. A report holding NaN or an infinite value
// outside the omitted fields is refused before anything is written.
func (r *Report) WriteJSON(w io.Writer) error {
	if err := jsonw.Write(w, r.EncodeJSON); err != nil {
		return fmt.Errorf("mcd: json: %w", err)
	}
	return nil
}

// MarshalJSON makes the report JSON-safe anywhere it is embedded.
func (r *Report) MarshalJSON() ([]byte, error) {
	return jsonw.Marshal(r.EncodeJSON)
}
