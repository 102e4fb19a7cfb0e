package expr

import (
	"fmt"
	"sync"

	"memsched/internal/wal"
)

// checkpointRecord is one completed (point, strategy) row: the cell key
// plus the full CellTelemetry (row, telemetry, decision digest, fault
// stats), so a resumed run can replay CSV, tables and telemetry JSONL
// byte-identically.
type checkpointRecord struct {
	Key  string        `json:"key"`
	Cell CellTelemetry `json:"cell"`
}

// Checkpoint is a crash-safe sweep journal: an append-only JSONL file
// holding one record per completed (point, strategy) row, fsync'd after
// every record. Opening an existing journal loads the completed cells so
// Run can skip them; because every cell is an independent deterministic
// simulation, a resumed sweep produces output byte-identical to an
// uninterrupted one (see TestCheckpointResumeByteIdentical).
//
// The framing is internal/wal's: a torn final line (SIGKILL mid-write)
// is dropped and truncated away, a corrupt interior line is rejected.
//
// A Checkpoint is safe for concurrent use by the sweep workers of
// multiple figures; keys embed the figure ID so one journal can back a
// whole multi-figure paperbench run.
type Checkpoint struct {
	mu       sync.Mutex
	log      *wal.Log
	done     map[string]CellTelemetry
	restored int // cells loaded from an existing journal
}

// checkpointKey names one (figure, point, strategy) row. It uses the
// sweep point's N rather than the built instance's name so lookups need
// no instance construction.
func checkpointKey(figID string, n int, strategy string) string {
	return fmt.Sprintf("%s|N=%d|%s", figID, n, strategy)
}

// OpenCheckpoint opens or creates the sweep journal at path. config is
// the caller's fingerprint of everything that affects cell results or
// output (sweep trim flags, replicas, fault plan, telemetry shape); an
// existing journal with a different fingerprint is rejected.
func OpenCheckpoint(path, config string) (*Checkpoint, error) {
	c := &Checkpoint{done: make(map[string]CellTelemetry)}
	var err error
	c.log, err = wal.Open(path, wal.Format{
		Name:       "expr: checkpoint",
		VersionKey: "checkpoint_version",
		// Bump on incompatible record changes so a resume against an old
		// journal fails loudly instead of silently replaying stale cells.
		Version: 1,
		Config:  config,
		Mismatch: func(path, got string) error {
			return fmt.Errorf("expr: checkpoint %s was written under a different configuration\n  journal: %s\n  current: %s\ndelete the journal (or rerun with the original flags) to proceed",
				path, got, config)
		},
	}, func(rec checkpointRecord) error {
		if rec.Key == "" {
			return wal.ErrCorrupt
		}
		c.done[rec.Key] = rec.Cell
		c.restored++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Lookup returns the journaled cell for key, if any.
func (c *Checkpoint) Lookup(key string) (CellTelemetry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell, ok := c.done[key]
	return cell, ok
}

// Add journals one completed cell: the record is appended as a single
// JSON line and fsync'd before Add returns, so a SIGKILL immediately
// after never loses it. Errors are sticky (see Err); the first one is
// also returned.
func (c *Checkpoint) Add(key string, cell CellTelemetry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.done[key]; ok {
		return c.log.Err()
	}
	if err := c.log.Append(checkpointRecord{Key: key, Cell: cell}); err != nil {
		return err
	}
	c.done[key] = cell
	return c.log.Err()
}

// Len returns the number of completed cells the journal holds.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Restored returns how many cells were loaded from the pre-existing
// journal (as opposed to added by this process).
func (c *Checkpoint) Restored() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.restored
}

// Path returns the journal file path.
func (c *Checkpoint) Path() string { return c.log.Path() }

// Err returns the first append failure, if any. Run surfaces it at the
// end of the sweep so a journal on a full disk fails the run instead of
// silently losing durability.
func (c *Checkpoint) Err() error { return c.log.Err() }

// Close syncs and closes the journal file.
func (c *Checkpoint) Close() error { return c.log.Close() }
