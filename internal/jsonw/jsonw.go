// Package jsonw is a small append-style JSON writer for the report encoders
// on hot paths (timing and corner reports, rcserve's slack and corners
// envelopes). It writes exactly the bytes encoding/json writes for the same
// values — json.Marshal in compact mode, json.MarshalIndent(v, "", "  ") or
// an Encoder with SetIndent("", "  ") in indented mode — without reflection
// and without the marshal-then-indent second pass:
//
//   - floats use encoding/json's format: 'f', or 'e' below 1e-6 and from
//     1e21 on, with a one-digit negative exponent cleaned up (e-07 → e-7);
//     NaN and ±Inf are an error, as they are for encoding/json;
//   - printable ASCII strings without '"', '\\', '<', '>' or '&' are copied
//     as they are, and every other string goes through json.Marshal, so HTML,
//     control-character and UTF-8 escaping are encoding/json's own;
//   - an empty object or array stays "{}" or "[]" on one line, as
//     json.Indent leaves it.
//
// An encode function emits the document as a sequence of calls on a Writer
// (Object, Key, values, EndObject, ...); Marshal, MarshalIndent and Write
// run it. The first error is sticky: later calls append nothing.
package jsonw

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// flushAt is the buffered size at which Write hands its bytes to the sink
// (checked whenever an object or array closes).
const flushAt = 32 << 10

// Writer appends one JSON document to a byte slice.
type Writer struct {
	buf    []byte
	indent bool
	depth  int
	comma  bool // a value precedes in the current container
	sep    bool // the next value needs a separator: not first, not keyed
	err    error
	out    io.Writer // Write's sink; nil when marshaling
	check  bool      // Write's first pass: append nothing
}

// Marshal returns the compact document encode writes: json.Marshal's bytes.
func Marshal(encode func(*Writer)) ([]byte, error) {
	return run(&Writer{}, encode)
}

// MarshalIndent returns the document encode writes in two-space indented
// form: json.MarshalIndent(v, "", "  ")'s bytes.
func MarshalIndent(encode func(*Writer)) ([]byte, error) {
	return run(&Writer{indent: true}, encode)
}

func run(w *Writer, encode func(*Writer)) ([]byte, error) {
	encode(w)
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// Write streams the indented document encode writes to out, with the
// trailing newline of an Encoder set to SetIndent("", "  "), in chunks of
// about 32 KB. Like the Encoder it writes nothing when the document holds a
// value JSON cannot carry: a first pass over encode appends nothing and only
// looks for that error.
func Write(out io.Writer, encode func(*Writer)) error {
	probe := &Writer{check: true}
	encode(probe)
	if probe.err != nil {
		return probe.err
	}
	w := &Writer{buf: make([]byte, 0, 2*flushAt), indent: true, out: out}
	encode(w)
	if w.err == nil {
		w.buf = append(w.buf, '\n')
		w.flush()
	}
	return w.err
}

func (w *Writer) flush() {
	if w.err != nil || w.out == nil || len(w.buf) == 0 {
		return
	}
	if _, err := w.out.Write(w.buf); err != nil {
		w.err = err
	}
	w.buf = w.buf[:0]
}

// skip reports whether the next call must append nothing.
func (w *Writer) skip() bool { return w.err != nil || w.check }

// elem positions the next value or key: nothing right after a key or at the
// start of the document, otherwise a comma after a previous value and, in
// indented mode, a new line at the current depth.
func (w *Writer) elem() {
	if !w.sep {
		w.sep = true
		return
	}
	if w.comma {
		w.buf = append(w.buf, ',')
	}
	w.newline()
}

func (w *Writer) newline() {
	if !w.indent {
		return
	}
	w.buf = append(w.buf, '\n')
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

func (w *Writer) open(c byte) {
	if w.skip() {
		return
	}
	w.elem()
	w.buf = append(w.buf, c)
	w.depth++
	w.comma = false
}

func (w *Writer) close(c byte) {
	if w.skip() {
		return
	}
	w.depth--
	if w.comma {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.comma = true
	if len(w.buf) >= flushAt {
		w.flush()
	}
}

// Object opens an object.
func (w *Writer) Object() { w.open('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.close('}') }

// Array opens an array.
func (w *Writer) Array() { w.open('[') }

// EndArray closes the innermost array.
func (w *Writer) EndArray() { w.close(']') }

// Key writes an object member's name and returns w for the member's value:
// w.Key("tns").Float(tns).
func (w *Writer) Key(k string) *Writer {
	if w.skip() {
		return w
	}
	w.elem()
	w.str(k)
	w.buf = append(w.buf, ':')
	if w.indent {
		w.buf = append(w.buf, ' ')
	}
	w.sep = false
	return w
}

// String writes a string value.
func (w *Writer) String(s string) {
	if w.skip() {
		return
	}
	w.elem()
	w.str(s)
	w.comma = true
}

// Int writes an integer value.
func (w *Writer) Int(i int64) {
	if w.skip() {
		return
	}
	w.elem()
	w.buf = strconv.AppendInt(w.buf, i, 10)
	w.comma = true
}

// Uint writes an unsigned integer value.
func (w *Writer) Uint(u uint64) {
	if w.skip() {
		return
	}
	w.elem()
	w.buf = strconv.AppendUint(w.buf, u, 10)
	w.comma = true
}

// Null writes null.
func (w *Writer) Null() {
	if w.skip() {
		return
	}
	w.elem()
	w.buf = append(w.buf, "null"...)
	w.comma = true
}

// Float writes a float value in encoding/json's format. NaN and ±Inf make
// the Writer fail with the error encoding/json gives for them.
func (w *Writer) Float(f float64) {
	if w.err != nil {
		return
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		return
	}
	if w.check {
		return
	}
	w.elem()
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		n := len(w.buf)
		if n >= 4 && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
			w.buf[n-2] = w.buf[n-1]
			w.buf = w.buf[:n-1]
		}
	}
	w.comma = true
}

// plain marks the bytes a string is copied with as it is: printable ASCII
// except the quote, the backslash and encoding/json's HTML escapes.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = true
	}
	for _, c := range `"\\<>&` {
		t[c] = false
	}
	return t
}()

// str appends s as a JSON string.
func (w *Writer) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			w.buf = append(w.buf, b...)
			return
		}
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}
