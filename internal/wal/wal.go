package wal

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/timing"
	"repro/internal/trace"
)

// Meta is the durable per-design header: everything a recovery needs to
// rebuild the session the way it was first mounted, beyond the design deck
// itself. It is written once at create and refreshed at snapshot time.
type Meta struct {
	ID string `json:"id"`
	// Threshold/Required/K are the analysis options the session was opened
	// with (raw request values; defaults resolve downstream exactly as they
	// did on first create).
	Threshold float64 `json:"threshold,omitempty"`
	Required  float64 `json:"required,omitempty"`
	K         int     `json:"k,omitempty"`
	// Edits is the cumulative applied-edit count folded into the newest
	// snapshot; the live total is Edits plus the replayed log tail.
	Edits int `json:"edits"`
	// Seq is the live snapshot/log generation (snap.<Seq>.ckt + wal.<Seq>.log).
	Seq uint64 `json:"seq"`
}

// Store manages per-design durability state under one data directory:
//
//	<dir>/<id>/meta.json      analysis options + snapshot bookkeeping
//	<dir>/<id>/snap.<N>.ckt   materialized design deck (netlist.WriteDesign)
//	<dir>/<id>/wal.<N>.log    ECO edits accepted since snapshot N
//	                          (timing.FormatEdits lines, fsynced per append)
//
// The pair with the highest N whose snapshot is complete is the recovery
// point: replaying snap.<N> + wal.<N> rebuilds the session. Snapshots rotate
// by sequence number rather than truncating in place, so a crash at any
// point leaves either the old pair or the new pair intact — never a log
// whose edits are half-folded into a snapshot.
type Store struct {
	dir string
	mu  sync.Mutex // serializes directory-level create/remove/list
	// obs receives durability telemetry (append/fsync/snapshot/recovery
	// histograms and rotation/torn-tail/stale-file counters); nil — the
	// default — disables it. See Instrument.
	obs *obs.Registry
}

// Open ensures dir exists and returns the store rooted there.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("wal: empty data dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) designDir(id string) string { return filepath.Join(s.dir, id) }

func snapName(seq uint64) string { return fmt.Sprintf("snap.%d.ckt", seq) }
func logName(seq uint64) string  { return fmt.Sprintf("wal.%d.log", seq) }

// List returns the ids of every persisted design, sorted for determinism.
func (s *Store) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.dir, e.Name(), "meta.json")); err == nil {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Exists reports whether id has persisted state.
func (s *Store) Exists(id string) bool {
	if !validID(id) {
		return false
	}
	_, err := os.Stat(filepath.Join(s.designDir(id), "meta.json"))
	return err == nil
}

// validID rejects ids that could escape the data directory. Server-minted
// ids are hex, but recovery paths also see client-supplied ids.
func validID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// Remove deletes id's durable state.
func (s *Store) Remove(id string) error {
	if !validID(id) {
		return fmt.Errorf("wal: bad id %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.RemoveAll(s.designDir(id)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Create persists a brand-new design: meta.json, the initial snapshot
// (sequence 1) and an empty live log, all fsynced before it returns. The
// returned Log accepts the design's appended edits.
func (s *Store) Create(id, deck string, meta Meta) (*Log, error) {
	if !validID(id) {
		return nil, fmt.Errorf("wal: bad id %q", id)
	}
	meta.ID = id
	meta.Seq = 1
	dir := s.designDir(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := writeFileSync(filepath.Join(dir, snapName(1)), []byte(deck)); err != nil {
		return nil, err
	}
	if err := writeMeta(dir, meta); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, meta: meta, obs: s.obs}
	if err := l.openLog(); err != nil {
		return nil, err
	}
	return l, nil
}

// Recovered is the replayable state of one design: the newest complete
// snapshot plus the edits its live log held. TornBytes reports a trailing
// partial record the recovery dropped (a crash mid-append); zero means the
// log ended cleanly.
type Recovered struct {
	Meta      Meta
	Deck      string
	Edits     []timing.Edit
	TornBytes int
}

// Recover loads id's durable state and returns it together with a live Log
// positioned to accept new appends. The log's torn tail, if any, is
// truncated away so subsequent appends start at a record boundary; stray
// files from older sequences (an interrupted rotation) are retired. The
// replay records wal_recovery_seconds on the store's registry and a
// wal_recovery span under ctx's active trace span.
func (s *Store) Recover(ctx context.Context, id string) (rec *Recovered, l *Log, err error) {
	_, op := trace.StartOp(ctx, s.obs, "wal_recovery")
	op.Span().SetAttr("id", id)
	defer func() {
		if rec != nil {
			op.Span().SetAttr("replayed_edits", strconv.Itoa(len(rec.Edits)))
		}
		op.SetError(err)
		op.End()
	}()
	if !validID(id) {
		return nil, nil, fmt.Errorf("wal: bad id %q", id)
	}
	dir := s.designDir(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	meta, err := readMeta(dir)
	if err != nil {
		return nil, nil, err
	}

	// The recovery point is the highest-sequence complete snapshot — the
	// meta's Seq unless a crash interrupted a rotation after the snapshot
	// rename but before the meta rewrite, in which case the newer snapshot
	// on disk wins (its edits are a superset of the old pair's).
	seq, err := newestSnapshot(dir, meta.Seq)
	if err != nil {
		return nil, nil, err
	}
	meta.Seq = seq
	deckBytes, err := os.ReadFile(filepath.Join(dir, snapName(seq)))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}

	rec = &Recovered{Meta: meta, Deck: string(deckBytes)}
	logPath := filepath.Join(dir, logName(seq))
	raw, err := os.ReadFile(logPath)
	switch {
	case os.IsNotExist(err):
		// Crash between snapshot rename and log creation: nothing to replay.
	case err != nil:
		return nil, nil, fmt.Errorf("wal: %w", err)
	default:
		edits, clean, perr := replayLog(raw)
		if perr != nil {
			return nil, nil, fmt.Errorf("wal: %s: %w", logPath, perr)
		}
		rec.Edits = edits
		rec.TornBytes = len(raw) - clean
		if rec.TornBytes > 0 {
			if err := os.Truncate(logPath, int64(clean)); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
			s.obs.Counter("wal_torn_tails_dropped_total").Add(1)
		}
	}

	if retired := retireStale(dir, seq); retired > 0 {
		s.obs.Counter("wal_stale_files_retired_total").Add(int64(retired))
	}
	l = &Log{dir: dir, meta: meta, pending: len(rec.Edits), obs: s.obs}
	if err := l.openLog(); err != nil {
		return nil, nil, err
	}
	return rec, l, nil
}

// newestSnapshot scans for the highest complete snap.<N>.ckt, at least
// metaSeq (which names a snapshot Create/rotate fully committed).
func newestSnapshot(dir string, metaSeq uint64) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	best := uint64(0)
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "snap.") || !strings.HasSuffix(name, ".ckt") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap."), ".ckt"), 10, 64)
		if err != nil {
			continue
		}
		if n > best {
			best = n
		}
	}
	if best < metaSeq {
		return 0, fmt.Errorf("wal: %s: snapshot %d named by meta.json is missing", dir, metaSeq)
	}
	return best, nil
}

// retireStale deletes snapshots and logs from sequences older than live —
// leftovers of a rotation interrupted before its cleanup step — and returns
// how many files it removed. Failures are ignored: stale files are garbage,
// not state.
func retireStale(dir string, live uint64) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	retired := 0
	for _, e := range ents {
		name := e.Name()
		var n uint64
		switch {
		case strings.HasPrefix(name, "snap.") && strings.HasSuffix(name, ".ckt"):
			n, err = strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap."), ".ckt"), 10, 64)
		case strings.HasPrefix(name, "wal.") && strings.HasSuffix(name, ".log"):
			n, err = strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal."), ".log"), 10, 64)
		case strings.HasSuffix(name, ".tmp"):
			if os.Remove(filepath.Join(dir, name)) == nil {
				retired++
			}
			continue
		default:
			continue
		}
		if err == nil && n < live {
			if os.Remove(filepath.Join(dir, name)) == nil {
				retired++
			}
		}
	}
	return retired
}

// replayLog parses the log line by line. A torn final line — no trailing
// newline, unparseable — is tolerated as a crash mid-append and reported via
// the clean-byte offset; anything else malformed is corruption and errors.
func replayLog(raw []byte) (edits []timing.Edit, clean int, err error) {
	off := 0
	for off < len(raw) {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			// Unterminated tail: a torn append. Drop it.
			return edits, off, nil
		}
		line := string(raw[off : off+nl])
		parsed, perr := timing.ParseEdits(line)
		if perr != nil {
			// A complete line that does not parse is corruption, not a torn
			// write — fail loudly rather than silently losing edits.
			return nil, 0, fmt.Errorf("offset %d: %w", off, perr)
		}
		edits = append(edits, parsed...)
		off += nl + 1
		clean = off
	}
	return edits, clean, nil
}

// Log is one design's live durability handle. Callers must serialize all
// calls (rcserve holds the design-session mutex across Append/Rotate, so
// log order is apply order).
type Log struct {
	dir     string
	meta    Meta
	f       *os.File
	pending int           // edits appended since the live snapshot
	obs     *obs.Registry // inherited from the store; nil disables telemetry
}

func (l *Log) openLog() error {
	f, err := os.OpenFile(filepath.Join(l.dir, logName(l.meta.Seq)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	return nil
}

// Append renders the edits through the ECO grammar, appends them to the live
// log and fsyncs before returning: an acknowledged edit survives a crash. It
// records wal_append_seconds on the store's registry and a wal_append span
// under ctx's active trace span; the fsync — usually the dominant cost —
// gets its own nested wal_fsync span and histogram.
func (l *Log) Append(ctx context.Context, edits []timing.Edit) (err error) {
	if len(edits) == 0 {
		return nil
	}
	ctx, op := trace.StartOp(ctx, l.obs, "wal_append")
	op.Span().SetAttr("edits", strconv.Itoa(len(edits)))
	defer func() {
		op.SetError(err)
		op.End()
	}()
	text := timing.FormatEdits(edits)
	// Guard against unreplayable lines reaching disk: FormatEdits renders
	// malformed hand-assembled edits as lines a reparse rejects.
	if _, err := timing.ParseEdits(text); err != nil {
		return fmt.Errorf("wal: refusing unreplayable edits: %w", err)
	}
	if _, err := l.f.WriteString(text); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, fop := trace.StartOp(ctx, l.obs, "wal_fsync")
	err = l.f.Sync()
	fop.SetError(err)
	fop.End()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.pending += len(edits)
	return nil
}

// Pending reports the edits appended since the live snapshot — the
// replay-length a crash right now would pay, and the rotation trigger.
func (l *Log) Pending() int { return l.pending }

// Seq returns the live snapshot/log sequence number.
func (l *Log) Seq() uint64 { return l.meta.Seq }

// Rotate makes deck the new recovery point: it writes snapshot N+1
// atomically, switches appends to the (empty) log N+1, rewrites meta, and
// retires the old pair. A crash anywhere in between leaves a complete pair
// on disk — old before the snapshot rename commits, new after. The
// snapshot write + rename (the bulk of a rotation's IO) records
// wal_snapshot_seconds and a wal_snapshot span under ctx, and a completed
// rotation bumps wal_rotations_total.
func (l *Log) Rotate(ctx context.Context, deck string, totalEdits int) error {
	next := l.meta.Seq + 1
	tmp := filepath.Join(l.dir, snapName(next)+".tmp")
	_, op := trace.StartOp(ctx, l.obs, "wal_snapshot")
	op.Span().SetAttr("seq", strconv.FormatUint(next, 10))
	if err := writeFileSync(tmp, []byte(deck)); err != nil {
		op.SetError(err)
		op.End()
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName(next))); err != nil {
		err = fmt.Errorf("wal: %w", err)
		op.SetError(err)
		op.End()
		return err
	}
	syncDir(l.dir)
	op.End()

	old, oldSeq := l.f, l.meta.Seq
	l.meta.Seq = next
	l.meta.Edits = totalEdits
	if err := l.openLog(); err != nil {
		l.f, l.meta.Seq = old, oldSeq // stay on the old pair; it is still complete
		return err
	}
	old.Close()
	if err := writeMeta(l.dir, l.meta); err != nil {
		return err
	}
	l.pending = 0
	os.Remove(filepath.Join(l.dir, snapName(oldSeq)))
	os.Remove(filepath.Join(l.dir, logName(oldSeq)))
	l.obs.Counter("wal_rotations_total").Add(1)
	return nil
}

// Close releases the log's file handle.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// writeMeta atomically replaces meta.json.
func writeMeta(dir string, m Meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp := filepath.Join(dir, "meta.json.tmp")
	if err := writeFileSync(tmp, append(data, '\n')); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "meta.json")); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(dir)
	return nil
}

func readMeta(dir string) (Meta, error) {
	var m Meta
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return m, fmt.Errorf("wal: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("wal: %s/meta.json: %w", dir, err)
	}
	return m, nil
}

// writeFileSync writes data and fsyncs the file before closing it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so renames within it are durable. Best-effort:
// some filesystems reject directory fsync; the rename itself is still
// atomic there.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
