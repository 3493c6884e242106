package wal

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/timing"
)

func f64(v float64) *float64 { return &v }

func testEdits() []timing.Edit {
	return []timing.Edit{
		{Op: "setR", Net: "drv", Node: "o", R: f64(5)},
		{Op: "addC", Net: "bus", Node: "far", C: f64(0.25)},
	}
}

const testDeck = ".design d\n.net drv\n.input in\nR1 in o 10\nC1 o 0 2\n.output o\n.endnet\n.end\n"

func TestCreateAppendRecover(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.Create("abc123", testDeck, Meta{Threshold: 0.7, Required: 100, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(context.Background(), testEdits()); err != nil {
		t.Fatal(err)
	}
	if l.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", l.Pending())
	}
	l.Close()

	if !st.Exists("abc123") {
		t.Fatal("Exists = false after Create")
	}
	ids, err := st.List()
	if err != nil || len(ids) != 1 || ids[0] != "abc123" {
		t.Fatalf("List = %v, %v", ids, err)
	}

	rec, l2, err := st.Recover(context.Background(), "abc123")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Deck != testDeck {
		t.Errorf("recovered deck mismatch:\n%s", rec.Deck)
	}
	if rec.Meta.Threshold != 0.7 || rec.Meta.Required != 100 || rec.Meta.K != 3 {
		t.Errorf("recovered meta = %+v", rec.Meta)
	}
	if len(rec.Edits) != 2 || rec.TornBytes != 0 {
		t.Fatalf("recovered %d edits, torn %d", len(rec.Edits), rec.TornBytes)
	}
	if rec.Edits[0].Op != "setR" || rec.Edits[0].Net != "drv" || *rec.Edits[0].R != 5 {
		t.Errorf("edit 0 = %+v", rec.Edits[0])
	}
}

func TestRotateRetiresOldPair(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x1", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(context.Background(), testEdits()); err != nil {
		t.Fatal(err)
	}
	const newDeck = testDeck + "* rotated\n"
	if err := l.Rotate(context.Background(), newDeck, 2); err != nil {
		t.Fatal(err)
	}
	if l.Pending() != 0 || l.Seq() != 2 {
		t.Fatalf("after rotate: pending %d seq %d", l.Pending(), l.Seq())
	}
	// New appends land in the new log; old pair is gone.
	if err := l.Append(context.Background(), testEdits()[:1]); err != nil {
		t.Fatal(err)
	}
	l.Close()
	dir := filepath.Join(st.Dir(), "x1")
	if _, err := os.Stat(filepath.Join(dir, "snap.1.ckt")); !os.IsNotExist(err) {
		t.Error("old snapshot survived rotation")
	}
	rec, l2, err := st.Recover(context.Background(), "x1")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Deck != newDeck || len(rec.Edits) != 1 || rec.Meta.Edits != 2 {
		t.Errorf("post-rotate recovery: deck %q, %d edits, meta %+v", rec.Deck, len(rec.Edits), rec.Meta)
	}
}

// TestTornTailDropped simulates a crash mid-append: the log ends with a
// partial record, which recovery must drop (and truncate away) while keeping
// every complete record.
func TestTornTailDropped(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x2", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(context.Background(), testEdits()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	logPath := filepath.Join(st.Dir(), "x2", "wal.1.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("setR drv.o 9") // no newline: torn
	f.Close()

	rec, l2, err := st.Recover(context.Background(), "x2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Edits) != 2 || rec.TornBytes == 0 {
		t.Fatalf("recovered %d edits, torn %d", len(rec.Edits), rec.TornBytes)
	}
	// The torn bytes are gone from disk; appends resume at a record boundary.
	if err := l2.Append(context.Background(), testEdits()[:1]); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	rec2, l3, err := st.Recover(context.Background(), "x2")
	if err != nil {
		t.Fatal(err)
	}
	l3.Close()
	if len(rec2.Edits) != 3 || rec2.TornBytes != 0 {
		t.Fatalf("second recovery: %d edits, torn %d", len(rec2.Edits), rec2.TornBytes)
	}
}

// TestCorruptLineFailsLoudly: a complete-but-unparseable line is corruption,
// not a torn write; recovery must refuse rather than silently skip edits.
func TestCorruptLineFailsLoudly(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x3", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(context.Background(), testEdits())
	l.Close()
	logPath := filepath.Join(st.Dir(), "x3", "wal.1.log")
	f, _ := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString("zorch drv.o 9\n")
	f.Close()
	if _, _, err := st.Recover(context.Background(), "x3"); err == nil {
		t.Fatal("corrupt log recovered silently")
	}
}

// TestInterruptedRotation: a crash after the new snapshot's rename but
// before the meta rewrite leaves both pairs on disk with meta naming the old
// one. Recovery must pick the newer snapshot (a superset of the old pair)
// and retire the stale files.
func TestInterruptedRotation(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x4", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(context.Background(), testEdits())
	l.Close()
	dir := filepath.Join(st.Dir(), "x4")
	const newDeck = testDeck + "* newer\n"
	// Hand-craft the crash window: snap.2 committed, meta still at seq 1.
	if err := os.WriteFile(filepath.Join(dir, "snap.2.ckt"), []byte(newDeck), 0o644); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "snap.3.ckt.tmp"), []byte("garbage"), 0o644)

	rec, l2, err := st.Recover(context.Background(), "x4")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Deck != newDeck || len(rec.Edits) != 0 {
		t.Fatalf("recovery picked deck %q with %d edits, want newer snapshot with none", rec.Deck, len(rec.Edits))
	}
	if l2.Seq() != 2 {
		t.Errorf("live seq = %d, want 2", l2.Seq())
	}
	for _, stale := range []string{"snap.1.ckt", "wal.1.log", "snap.3.ckt.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Errorf("stale file %s survived recovery", stale)
		}
	}
}

func TestMissingNamedSnapshotErrors(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x5", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.Remove(filepath.Join(st.Dir(), "x5", "snap.1.ckt")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Recover(context.Background(), "x5"); err == nil {
		t.Fatal("recovery invented a snapshot")
	}
}

func TestRemove(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x6", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := st.Remove("x6"); err != nil {
		t.Fatal(err)
	}
	if st.Exists("x6") {
		t.Error("Exists after Remove")
	}
	if ids, _ := st.List(); len(ids) != 0 {
		t.Errorf("List after Remove = %v", ids)
	}
}

func TestBadIDsRejected(t *testing.T) {
	st, _ := Open(t.TempDir())
	for _, id := range []string{"", "../evil", "a/b", "a b", strings.Repeat("x", 200)} {
		if _, err := st.Create(id, testDeck, Meta{}); err == nil {
			t.Errorf("Create(%q) accepted", id)
		}
		if st.Exists(id) {
			t.Errorf("Exists(%q) = true", id)
		}
	}
}

// TestAppendRefusesUnreplayable: a hand-assembled edit with a missing value
// renders as a line a reparse rejects; the log must refuse it up front
// rather than poison recovery.
func TestAppendRefusesUnreplayable(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x7", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(context.Background(), []timing.Edit{{Op: "setR", Net: "drv", Node: "o"}}); err == nil {
		t.Fatal("unreplayable edit appended")
	}
	if l.Pending() != 0 {
		t.Errorf("pending = %d after refused append", l.Pending())
	}
	// The refused append must not have written anything: recovery is clean.
	rec, l2, err := st.Recover(context.Background(), "x7")
	if err != nil || len(rec.Edits) != 0 {
		t.Fatalf("recovery after refused append: %v, %d edits", err, len(rec.Edits))
	}
	l2.Close()
}
