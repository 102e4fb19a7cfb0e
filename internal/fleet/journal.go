package fleet

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"memsched/internal/serve"
	"memsched/internal/wal"
)

// journalConfig fingerprints everything replay correctness depends on:
// the record schema version and the canonical-key rendering version. A
// journal written under a different fingerprint is rejected, because
// its keys would not address the same content.
const journalConfig = "v1|keyv1"

// journalRecord is one job-lifecycle transition, one JSON line each:
//
//	accept   — the router admitted the job (the write-ahead record: it
//	           is durable before the client sees 202, so a crash can
//	           never lose an accepted job)
//	complete — the job reached a terminal state, with the verbatim
//	           result bytes for done jobs so a restarted router re-serves
//	           them byte-identically
type journalRecord struct {
	Op string `json:"op"`
	ID string `json:"id"`

	// accept fields.
	Key         string            `json:"key,omitempty"`
	Trace       uint64            `json:"trace,omitempty"`
	Req         *serve.JobRequest `json:"req,omitempty"`
	SubmittedMS int64             `json:"submitted_unix_ms,omitempty"`

	// complete fields. Result carries the verbatim replica bytes as a
	// JSON string (not an embedded object): Marshal would compact an
	// embedded json.RawMessage, and "byte-identical re-serve after
	// restart" demands the exact bytes back, whitespace included.
	State      serve.JobState `json:"state,omitempty"`
	Result     string         `json:"result,omitempty"`
	Error      string         `json:"error,omitempty"`
	FinishedMS int64          `json:"finished_unix_ms,omitempty"`
}

// RecoveredJob is one job reconstructed from the journal on open.
type RecoveredJob struct {
	ID          string
	Key         string
	Trace       uint64
	Req         serve.JobRequest
	SubmittedMS int64
	// Terminal outcome, populated for completed jobs only.
	State      serve.JobState
	Result     json.RawMessage
	Error      string
	FinishedMS int64
}

// Journal is the router's write-ahead job journal: an internal/wal log
// recording accept/complete transitions, the same framing as the sweep
// checkpoint. The accept record is durable before the client receives
// 202, so a kill -9 of the router loses no accepted job: on restart,
// jobs with an accept but no complete are replayed — correct by
// determinism — and completed jobs are re-served from their journaled
// result bytes.
//
// A torn final line is dropped; a torn or inconsistent line anywhere
// else means real corruption and is rejected. Records are deduplicated
// by job ID: a duplicate accept for the same (ID, key) pair and a
// duplicate complete are ignored; an accept that re-uses an ID under a
// different canonical key is corruption. Journals written before the
// dispatch record was dropped still load: a dispatch line is checked
// against the accepts and otherwise ignored.
type Journal struct {
	mu  sync.Mutex
	log *wal.Log

	// accepts holds every journaled job by ID; a completed one carries
	// its terminal State (a complete in a non-terminal state is refused).
	accepts map[string]*RecoveredJob
	order   []string // accept order

	appends   int64
	appendErr int64
}

// OpenJournal opens or creates the write-ahead journal at path,
// replaying any existing records.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{accepts: make(map[string]*RecoveredJob)}
	var err error
	j.log, err = wal.Open(path, wal.Format{
		Name:       "fleet: journal",
		VersionKey: "journal_version",
		// Bump on incompatible record changes so a recovery against an
		// old journal fails loudly instead of silently replaying garbage.
		Version: 1,
		Config:  journalConfig,
		Mismatch: func(path, got string) error {
			return fmt.Errorf("fleet: journal %s was written under configuration %q, current is %q; delete the journal to proceed",
				path, got, journalConfig)
		},
	}, func(rec journalRecord) error {
		if rec.ID == "" {
			return wal.ErrCorrupt
		}
		dup, err := j.checkLocked(rec)
		if err == nil && !dup {
			j.applyLocked(rec)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// checkLocked validates one transition against the folded state. dup
// reports a record that changes nothing — a same-key re-accept, a
// second complete, or a legacy dispatch — and is ignored.
func (j *Journal) checkLocked(rec journalRecord) (dup bool, err error) {
	switch rec.Op {
	case "accept":
		if rec.Key == "" || rec.Req == nil {
			return false, fmt.Errorf("accept of %s misses key or request", rec.ID)
		}
		if prev, ok := j.accepts[rec.ID]; ok {
			if prev.Key != rec.Key {
				return false, fmt.Errorf("re-accept of %s under key %q (was %q)", rec.ID, rec.Key, prev.Key)
			}
			return true, nil
		}
	case "complete", "dispatch": // dispatch: the record older journals carry
		job, ok := j.accepts[rec.ID]
		if !ok {
			return false, fmt.Errorf("%s of unjournaled job %s", rec.Op, rec.ID)
		}
		if rec.Op == "dispatch" || job.State.Terminal() {
			return true, nil
		}
		if !rec.State.Terminal() {
			return false, fmt.Errorf("complete of %s in non-terminal state %q", rec.ID, rec.State)
		}
	default:
		return false, fmt.Errorf("unknown op %q", rec.Op)
	}
	return false, nil
}

// applyLocked folds one checked, non-duplicate accept or complete.
func (j *Journal) applyLocked(rec journalRecord) {
	if rec.Op == "accept" {
		j.accepts[rec.ID] = &RecoveredJob{
			ID: rec.ID, Key: rec.Key, Trace: rec.Trace,
			Req: *rec.Req, SubmittedMS: rec.SubmittedMS,
		}
		j.order = append(j.order, rec.ID)
		return
	}
	job := j.accepts[rec.ID]
	job.State, job.Error, job.FinishedMS = rec.State, rec.Error, rec.FinishedMS
	if rec.Result != "" {
		job.Result = json.RawMessage(rec.Result)
	}
}

// Recovered returns the jobs reconstructed from the pre-existing
// journal, in accept order: complete holds terminal jobs (result bytes
// intact), incomplete holds accepted jobs with no terminal record —
// the ones a restarted router must replay.
func (j *Journal) Recovered() (complete, incomplete []RecoveredJob) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, id := range j.order {
		job := j.accepts[id]
		if job.State.Terminal() {
			complete = append(complete, *job)
		} else {
			incomplete = append(incomplete, *job)
		}
	}
	return complete, incomplete
}

// Accept journals a job admission: the write-ahead record. It is
// fsync'd before returning, so a crash immediately after cannot lose
// the job. The error (also sticky, see Err) tells the router the
// durability promise would be broken — Submit turns it into a 503.
func (j *Journal) Accept(id, key string, trace uint64, req serve.JobRequest, submitted time.Time) error {
	return j.append(journalRecord{
		Op: "accept", ID: id, Key: key, Trace: trace,
		Req: &req, SubmittedMS: submitted.UnixMilli(),
	})
}

// Complete journals a terminal transition. Losing this record (crash
// between the replica answering and the fsync) is safe: the job is
// replayed on recovery and determinism reproduces the same bytes.
func (j *Journal) Complete(id string, state serve.JobState, result json.RawMessage, errMsg string, finished time.Time) error {
	return j.append(journalRecord{
		Op: "complete", ID: id, State: state,
		Result: string(result), Error: errMsg, FinishedMS: finished.UnixMilli(),
	})
}

func (j *Journal) append(rec journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Validate and dedupe before touching the file, so an inconsistent
	// transition is refused rather than persisted.
	dup, err := j.checkLocked(rec)
	if err != nil {
		return fmt.Errorf("fleet: journal %s: %w", j.log.Path(), err)
	}
	if dup {
		return j.log.Err() // already durable
	}
	if err := j.log.Append(rec); err != nil {
		j.appendErr++
		return err
	}
	j.appends++
	j.applyLocked(rec)
	return nil
}

// JournalStats is the observable state of the journal.
type JournalStats struct {
	Path string `json:"path"`
	// Records counts appends by this process (recovery loads excluded).
	Records int64 `json:"records_appended"`
	Errors  int64 `json:"append_errors"`
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{Path: j.log.Path(), Records: j.appends, Errors: j.appendErr}
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.log.Path() }

// Err returns the first append failure, if any.
func (j *Journal) Err() error { return j.log.Err() }

// Close syncs and closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }
