package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSample is one series value from a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnap is one scrape of GET /metrics.
type promSnap []promSample

// parseProm reads the Prometheus text exposition format: comment and blank
// lines are skipped, every other line is `name{k="v",...} value` or
// `name value`. Label values may escape \\, \" and \n.
func parseProm(text string) (promSnap, error) {
	var out promSnap
	for no, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", no+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ,")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=\"")
			if eq <= 0 {
				return s, fmt.Errorf("bad label set in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// sum adds the values of every series called name whose labels include each
// key/value pair in match.
func (p promSnap) sum(name string, match ...string) float64 {
	total := 0.0
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// promWindow is the difference between two scrapes taken around a measured
// window.
type promWindow struct{ before, after promSnap }

// delta is the growth of a counter (or histogram _sum/_count) over the
// window.
func (w promWindow) delta(name string, match ...string) float64 {
	return w.after.sum(name, match...) - w.before.sum(name, match...)
}

// meanMs is the mean of one histogram's observations over the window, in
// milliseconds (0 when nothing was observed). name is the histogram's base
// name, for example "wal_fsync_seconds".
func (w promWindow) meanMs(name string, match ...string) float64 {
	return 1000 * ratio(w.delta(name+"_sum", match...), w.delta(name+"_count", match...))
}
