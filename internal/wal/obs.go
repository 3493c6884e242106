package wal

import "repro/internal/obs"

// Instrument attaches a metrics registry to the store. Logs handed out by
// subsequent Create/Recover calls record durability telemetry on it:
//
//	wal_append_seconds    one observation per Append (render + write + fsync)
//	wal_fsync_seconds     the fsync alone, nested under the append
//	wal_snapshot_seconds  snapshot write + rename during a rotation
//	wal_recovery_seconds  one observation per Recover
//	wal_rotations_total           completed rotations
//	wal_torn_tails_dropped_total  recoveries that truncated a torn tail
//	wal_stale_files_retired_total files deleted as stale sequence leftovers
//
// A nil registry (the default) disables all of it. Instrument is not
// synchronized with in-flight operations; call it right after Open.
func (s *Store) Instrument(reg *obs.Registry) { s.obs = reg }
