package fleet

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"memsched/internal/obs"
	"memsched/internal/serve"
	"memsched/internal/sim"
)

// TestRouterJournalRecovery builds the journal a crashed router would
// leave behind — accepts with no complete, one completed job — and pins
// the restart contract: completed jobs are re-served from their
// journaled bytes, incomplete ones are re-dispatched to live replicas,
// jobs sharing a canonical key coalesce onto one driver, and the ID
// sequence continues past the journal.
func TestRouterJournalRecovery(t *testing.T) {
	h := newHarness(t, 2, nil)
	path := filepath.Join(t.TempDir(), "router.journal")

	reqA := Canonicalize(serve.JobRequest{Workload: "matmul2d", N: 3})
	reqB := Canonicalize(serve.JobRequest{Workload: "cholesky", N: 4})
	// reqC only ever appears as a completed record, so its journaled
	// bytes must survive into the cache untouched by any replay.
	reqC := Canonicalize(serve.JobRequest{Workload: "matmul2d", N: 7})
	keyA, keyB, keyC := CanonicalKey(reqA), CanonicalKey(reqB), CanonicalKey(reqC)
	doneResult := json.RawMessage(`{"makespan_ms": 42, "gflops": 7}`)

	pre, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	// rjob-000001 completed before the crash; 2, 3, 4 did not. 2 and 4
	// share a key, so recovery must drive only one of them.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(pre.Accept("rjob-000001", keyC, 1, reqC, t0))
	must(pre.Complete("rjob-000001", serve.JobDone, doneResult, "", t0))
	must(pre.Accept("rjob-000002", keyA, 2, reqA, t0))
	must(pre.Accept("rjob-000003", keyB, 3, reqB, t0))
	must(pre.Accept("rjob-000004", keyA, 4, reqA, t0))
	must(pre.Close())

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg := fastRouterCfg(h.urls)
	cfg.Journal = j
	r := newTestRouter(t, cfg)

	if rec := r.Recovery(); rec.Complete != 1 || rec.Replayed != 3 || rec.Deduped != 1 {
		t.Fatalf("recovery stats = %+v, want {1 3 1}", rec)
	}

	// The completed job is terminal immediately, bytes verbatim.
	st, err := r.Job("rjob-000001")
	if err != nil || st.State != serve.JobDone {
		t.Fatalf("recovered complete job: %+v, %v", st, err)
	}
	if string(st.Result) != string(doneResult) {
		t.Fatalf("recovered result = %s, want journaled bytes", st.Result)
	}

	// Replayed jobs complete against the live replicas.
	for _, id := range []string{"rjob-000002", "rjob-000003", "rjob-000004"} {
		st := waitRouterDone(t, r, id)
		if st.State != serve.JobDone {
			t.Fatalf("replayed %s = %s (%s)", id, st.State, st.Error)
		}
		if len(st.Result) == 0 {
			t.Fatalf("replayed %s has no result", id)
		}
	}
	// Determinism: the two same-key jobs carry identical bytes.
	a, _ := r.Job("rjob-000002")
	b, _ := r.Job("rjob-000004")
	if string(a.Result) != string(b.Result) {
		t.Fatal("same-key replayed jobs differ")
	}

	// Replay is eventful.
	recovers := 0
	for _, ev := range r.FlightDump(0).Events {
		if ev.Kind == obs.KindRecover {
			recovers++
		}
	}
	if recovers != 3 {
		t.Fatalf("recover events = %d, want 3", recovers)
	}

	// New submissions continue the ID sequence past the journal.
	fresh, err := r.Submit(serve.JobRequest{Workload: "matmul2d", N: 9})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "rjob-000005" {
		t.Fatalf("post-recovery ID = %s, want rjob-000005", fresh.ID)
	}
	waitRouterDone(t, r, fresh.ID)

	// The journaled done result seeded the cache: a same-key submission
	// is served without touching a replica.
	hit, err := r.Submit(reqC)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || string(hit.Result) != string(doneResult) {
		t.Fatalf("journal-backed cache miss: hit=%v result=%s", hit.CacheHit, hit.Result)
	}

	// List stays in accept order.
	list := r.List()
	for i, want := range []string{"rjob-000001", "rjob-000002", "rjob-000003", "rjob-000004", "rjob-000005"} {
		if list[i].ID != want {
			t.Fatalf("list[%d] = %s, want %s", i, list[i].ID, want)
		}
	}
}

// TestRouterJournalsLifecycles pins the write-ahead discipline on the
// live path: every submission appends an accept before the client sees
// it, terminals append completes, and a second router over the same
// journal re-serves everything with zero replays.
func TestRouterJournalsLifecycles(t *testing.T) {
	h := newHarness(t, 2, nil)
	path := filepath.Join(t.TempDir(), "router.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastRouterCfg(h.urls)
	cfg.Journal = j
	r := newTestRouter(t, cfg)

	var ids []string
	var results []string
	for n := 2; n < 6; n++ {
		st, err := r.Submit(serve.JobRequest{Workload: "matmul2d", N: n})
		if err != nil {
			t.Fatal(err)
		}
		st = waitRouterDone(t, r, st.ID)
		ids = append(ids, st.ID)
		results = append(results, string(st.Result))
	}
	// A repeat spec takes the cache-hit path; it must be journaled too.
	hit, err := r.Submit(serve.JobRequest{Workload: "matmul2d", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("expected cache hit")
	}
	ids = append(ids, hit.ID)
	results = append(results, string(hit.Result))

	if m := r.Snapshot(); m.Journal == nil || m.Journal.Records == 0 || m.JournalErrors != 0 {
		t.Fatalf("journal metrics = %+v / %d errors", m.Journal, m.JournalErrors)
	}
	r.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	cfg2 := fastRouterCfg(h.urls)
	cfg2.Journal = j2
	r2 := newTestRouter(t, cfg2)
	if rec := r2.Recovery(); rec.Complete != len(ids) || rec.Replayed != 0 {
		t.Fatalf("recovery = %+v, want %d complete, 0 replayed", rec, len(ids))
	}
	for i, id := range ids {
		st, err := r2.Job(id)
		if err != nil || st.State != serve.JobDone {
			t.Fatalf("job %s after restart: %+v, %v", id, st, err)
		}
		if string(st.Result) != results[i] {
			t.Fatalf("job %s result changed across restart", id)
		}
	}
}

// TestRouterCancelJournalsComplete pins that a canceled job still
// writes its terminal record, so a restart doesn't replay a job the
// client already canceled.
func TestRouterCancelJournalsComplete(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	h := newHarness(t, 1, func(i int) serve.Runner {
		return func(ctx context.Context, req serve.JobRequest) (*sim.Result, error) {
			select {
			case <-block:
				return okRes(req), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	})
	path := filepath.Join(t.TempDir(), "router.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastRouterCfg(h.urls)
	cfg.Journal = j
	r := newTestRouter(t, cfg)
	st, err := r.Submit(serve.JobRequest{Workload: "matmul2d", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if st = waitRouterDone(t, r, st.ID); st.State != serve.JobCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	r.Close()
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	complete, incomplete := j2.Recovered()
	if len(complete) != 1 || len(incomplete) != 0 {
		t.Fatalf("recovered %d complete / %d incomplete, want the canceled job completed", len(complete), len(incomplete))
	}
	if complete[0].State != serve.JobCanceled {
		t.Fatalf("state = %s, want canceled", complete[0].State)
	}
}
