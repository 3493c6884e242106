package jsonw

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// encodeAny writes v — a tree of map-free JSON values: []any for arrays,
// []member for objects (members kept in order), strings, float64, int64,
// uint64 and nil — through w.
type member struct {
	k string
	v any
}

func encodeAny(w *Writer, v any) {
	switch v := v.(type) {
	case nil:
		w.Null()
	case string:
		w.String(v)
	case float64:
		w.Float(v)
	case int64:
		w.Int(v)
	case uint64:
		w.Uint(v)
	case []any:
		w.Array()
		for _, e := range v {
			encodeAny(w, e)
		}
		w.EndArray()
	case []member:
		w.Object()
		for _, m := range v {
			w.Key(m.k)
			encodeAny(w, m.v)
		}
		w.EndObject()
	}
}

// orderedObject marshals members in order through encoding/json.
type orderedObject []member

func (o orderedObject) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, m := range o {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(m.k)
		v, err := json.Marshal(toStd(m.v))
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// toStd maps the encodeAny tree onto values encoding/json marshals the same.
func toStd(v any) any {
	switch v := v.(type) {
	case []any:
		out := make([]any, len(v))
		for i, e := range v {
			out[i] = toStd(e)
		}
		return out
	case []member:
		return orderedObject(v)
	}
	return v
}

func TestMatchesEncodingJSON(t *testing.T) {
	cases := []any{
		nil,
		"plain",
		1.5,
		int64(-3),
		uint64(1 << 63),
		[]any{},
		[]member{},
		[]any{[]any{}, []member{}, nil},
		[]member{{"a", []any{}}, {"b", []member{}}, {"c", []any{int64(1), 2.5, "x"}}},
		[]member{{"deep", []member{{"deeper", []any{[]member{{"x", nil}}, []any{[]any{}}}}}}, {"z", "<&>"}},
		[]any{"\u2028\u2029", "\xff\x00\t\"\\", "é", "\x7f", math.Copysign(0, -1)},
		[]any{"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\x1fb", "a\u2028b", "a\u2029b", "a\xffb"},
		[]any{1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20, -1e-7, 5e-324, math.MaxFloat64, 1e100, 123456789.125, 0.1},
	}
	for _, c := range cases {
		want, err := json.Marshal(toStd(c))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Marshal(func(w *Writer) { encodeAny(w, c) })
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("Marshal(%#v) = %q, %v; want %q", c, got, err, want)
		}
		wantIndent, _ := json.MarshalIndent(toStd(c), "", "  ")
		got, err = MarshalIndent(func(w *Writer) { encodeAny(w, c) })
		if err != nil || !bytes.Equal(got, wantIndent) {
			t.Errorf("MarshalIndent(%#v) = %q, %v; want %q", c, got, err, wantIndent)
		}
		var buf bytes.Buffer
		if err := Write(&buf, func(w *Writer) { encodeAny(w, c) }); err != nil || buf.String() != string(wantIndent)+"\n" {
			t.Errorf("Write(%#v) = %q, %v; want %q", c, buf.String(), err, string(wantIndent)+"\n")
		}
	}
}

// TestWriteChunksAndRefusal streams a document several chunks long in
// pieces, and writes nothing at all when a value late in it is NaN.
func TestWriteChunksAndRefusal(t *testing.T) {
	doc := make([]any, 20000)
	for i := range doc {
		doc[i] = []member{{"i", int64(i)}, {"v", float64(i) / 7}}
	}
	want, _ := json.MarshalIndent(toStd(doc), "", "  ")
	var buf countingBuffer
	if err := Write(&buf, func(w *Writer) { encodeAny(w, doc) }); err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want)+"\n" {
		t.Fatal("streamed document differs from json.MarshalIndent")
	}
	if buf.writes < 2 || buf.maxWrite > 2*flushAt {
		t.Errorf("%d writes of at most %d bytes; want several chunks of about %d", buf.writes, buf.maxWrite, flushAt)
	}

	doc[len(doc)-1] = math.NaN()
	var refused countingBuffer
	err := Write(&refused, func(w *Writer) { encodeAny(w, doc) })
	var uv *json.UnsupportedValueError
	if !errors.As(err, &uv) || err.Error() != "json: unsupported value: NaN" || refused.Len() != 0 {
		t.Fatalf("NaN document: err %v after %d bytes; want json: unsupported value: NaN and no bytes", err, refused.Len())
	}
	for _, f := range []float64{math.Inf(1), math.Inf(-1)} {
		if _, err := Marshal(func(w *Writer) { w.Float(f) }); err == nil || !strings.Contains(err.Error(), "Inf") {
			t.Errorf("Marshal(%v) err = %v", f, err)
		}
	}
}

type countingBuffer struct {
	bytes.Buffer
	writes, maxWrite int
}

func (c *countingBuffer) Write(p []byte) (int, error) {
	c.writes++
	c.maxWrite = max(c.maxWrite, len(p))
	return c.Buffer.Write(p)
}

// FuzzFloatString differs single floats and strings against encoding/json.
func FuzzFloatString(f *testing.F) {
	f.Add(0.0, "")
	f.Add(1e-7, "\u2028")
	f.Add(1e21, "<script>")
	f.Add(-123.456e-300, "\xed\xa0\x80")
	f.Fuzz(func(t *testing.T, v float64, s string) {
		want, werr := json.Marshal([]any{v, s})
		got, err := Marshal(func(w *Writer) { w.Array(); w.Float(v); w.String(s); w.EndArray() })
		if (werr != nil) != (err != nil) || !bytes.Equal(got, want) {
			t.Fatalf("[%v, %q]: got %q (%v), want %q (%v)", v, s, got, err, want, werr)
		}
	})
}
