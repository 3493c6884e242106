package wal

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestInstrumentedLifecycle drives create → append → rotate → torn-tail
// recover on an instrumented store and checks every satellite metric lands:
// append/fsync/snapshot/recovery histograms plus the rotation, torn-tail and
// stale-file counters.
func TestInstrumentedLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Instrument(reg)
	l, err := st.Create("d1", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(context.Background(), testEdits()); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(context.Background(), testDeck, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(context.Background(), testEdits()); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Tear the live log's tail and plant a stale old-sequence file so the
	// recovery exercises both counters.
	dir := filepath.Join(st.Dir(), "d1")
	logPath := filepath.Join(dir, logName(2))
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logName(1)), []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rec, l2, err := st.Recover(context.Background(), "d1")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.TornBytes == 0 {
		t.Fatal("expected a torn tail")
	}

	hist := func(name string) uint64 {
		return reg.Histogram(name, obs.LatencyBuckets).Snapshot().Count
	}
	if got := hist("wal_append_seconds"); got != 2 {
		t.Errorf("wal_append_seconds count = %d, want 2", got)
	}
	if got := hist("wal_fsync_seconds"); got != 2 {
		t.Errorf("wal_fsync_seconds count = %d, want 2", got)
	}
	if got := hist("wal_snapshot_seconds"); got != 1 {
		t.Errorf("wal_snapshot_seconds count = %d, want 1", got)
	}
	if got := hist("wal_recovery_seconds"); got != 1 {
		t.Errorf("wal_recovery_seconds count = %d, want 1", got)
	}
	if got := reg.Counter("wal_rotations_total").Value(); got != 1 {
		t.Errorf("wal_rotations_total = %d, want 1", got)
	}
	if got := reg.Counter("wal_torn_tails_dropped_total").Value(); got != 1 {
		t.Errorf("wal_torn_tails_dropped_total = %d, want 1", got)
	}
	if got := reg.Counter("wal_stale_files_retired_total").Value(); got < 1 {
		t.Errorf("wal_stale_files_retired_total = %d, want >= 1", got)
	}

	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, want := range []string{"wal_append_seconds_bucket", "wal_fsync_seconds_sum", "wal_rotations_total 1"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestAppendTraceSpans checks Append nests wal_append → wal_fsync under
// the caller's trace span.
func TestAppendTraceSpans(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.Create("d2", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tracer := trace.New(trace.Options{})
	ctx, root := tracer.Start(context.Background(), "edit")
	if err := l.Append(ctx, testEdits()); err != nil {
		t.Fatal(err)
	}
	root.End()

	got := tracer.Recent()[0]
	byName := map[string]trace.SpanRecord{}
	for _, s := range got.Spans {
		byName[s.Name] = s
	}
	app, ok := byName["wal_append"]
	if !ok {
		t.Fatal("wal_append span missing")
	}
	if app.Parent != byName["edit"].SpanID {
		t.Error("wal_append not parented under the request span")
	}
	fsync, ok := byName["wal_fsync"]
	if !ok {
		t.Fatal("wal_fsync span missing")
	}
	if fsync.Parent != app.SpanID {
		t.Error("wal_fsync not nested under wal_append")
	}
}
