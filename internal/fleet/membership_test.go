package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memsched/internal/obs"
	"memsched/internal/serve"
	"memsched/internal/sim"
)

func TestMembershipAddRemoveSemantics(t *testing.T) {
	h := newHarness(t, 2, nil)
	r := newTestRouter(t, fastRouterCfg(h.urls))

	if err := r.AddReplica(""); err == nil {
		t.Error("empty URL accepted")
	}
	if err := r.AddReplica("not-a-url"); err == nil {
		t.Error("schemeless URL accepted")
	}
	if err := r.AddReplica(h.urls[0]); err == nil {
		t.Error("duplicate member accepted")
	}
	if err := r.RemoveReplica("http://unknown:1", false); err == nil {
		t.Error("unknown member removed")
	}

	// Join a third replica (trailing slash is normalized away).
	extra := newHarness(t, 1, nil)
	if err := r.AddReplica(extra.urls[0] + "/"); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if got := r.Members(); len(got) != 3 {
		t.Fatalf("members after join = %v", got)
	}
	if st := r.Ready(); st.Replicas != 3 {
		t.Fatalf("Ready().Replicas = %d, want live membership 3", st.Replicas)
	}

	// Leave one original member, then refuse to go below one.
	if err := r.RemoveReplica(h.urls[0], true); err != nil {
		t.Fatalf("RemoveReplica: %v", err)
	}
	if err := r.RemoveReplica(h.urls[1], true); err != nil {
		t.Fatalf("RemoveReplica: %v", err)
	}
	if err := r.RemoveReplica(extra.urls[0], true); err == nil || !strings.Contains(err.Error(), "last member") {
		t.Fatalf("last member removal: %v", err)
	}

	if m := r.Snapshot(); m.MembershipJoins != 1 || m.MembershipLeaves != 2 || m.MembershipEvicts != 0 {
		t.Fatalf("counters = %d/%d/%d, want 1/2/0", m.MembershipJoins, m.MembershipLeaves, m.MembershipEvicts)
	}
	if st := r.Ready(); st.Replicas != 1 {
		t.Fatalf("Ready().Replicas = %d after leaves, want 1", st.Replicas)
	}

	// Membership changes land in the flight recorder.
	var joinEv, leaveEv int
	for _, ev := range r.FlightDump(0).Events {
		switch ev.Kind {
		case obs.KindReplicaJoin:
			joinEv++
		case obs.KindReplicaLeave:
			leaveEv++
		}
	}
	if joinEv != 1 || leaveEv != 2 {
		t.Fatalf("flight events: %d joins, %d leaves, want 1/2", joinEv, leaveEv)
	}
}

// TestMembershipMinimalDisruption pins the router-level consistency
// property behind join/leave: rebuilding the ring for a membership
// change remaps only roughly 1/N of the keyspace, so a join never
// triggers a fleet-wide cache/ownership reshuffle.
func TestMembershipMinimalDisruption(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	r, err := New(fastRouterCfg(urls))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const keys = 4000
	primary := func() map[string]string {
		out := make(map[string]string, keys)
		r.mu.Lock()
		ring := r.ring
		r.mu.Unlock()
		for i := 0; i < keys; i++ {
			k := CanonicalKey(serve.JobRequest{Workload: "matmul2d", N: 1 + i%280, Seed: int64(i)})
			out[fmt.Sprintf("k%d", i)] = ring.Primary(k)
		}
		return out
	}

	before := primary()
	if err := r.AddReplica("http://d:1"); err != nil {
		t.Fatal(err)
	}
	after := primary()
	moved := 0
	for k, rep := range before {
		if after[k] != rep {
			moved++
		}
	}
	// Ideal movement for 3→4 replicas is 1/4 of keys; allow 2x slack for
	// vnode variance but fail on anything near a full reshuffle.
	if frac := float64(moved) / keys; frac > 0.5 {
		t.Fatalf("join remapped %.0f%% of keys; want ~25%%", frac*100)
	} else if frac < 0.05 {
		t.Fatalf("join remapped only %.1f%% of keys; new member getting no share", frac*100)
	}

	// Leaving the new member must restore the previous assignment
	// exactly: only keys that had moved to d move back.
	if err := r.RemoveReplica("http://d:1", true); err != nil {
		t.Fatal(err)
	}
	restored := primary()
	for k, rep := range before {
		if restored[k] != rep {
			t.Fatalf("leave did not restore key %s: %s -> %s", k, rep, restored[k])
		}
	}
}

// TestMembershipDrainAwareLeave pins the no-redundant-work property: a
// drain-mode leave lets the replica's in-flight job finish there (no
// failover), and only then drops it from the health view.
func TestMembershipDrainAwareLeave(t *testing.T) {
	release := make(chan struct{})
	slowRunner := func(i int) serve.Runner {
		return func(ctx context.Context, req serve.JobRequest) (*sim.Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return okRes(req), nil
		}
	}
	h := newHarness(t, 2, slowRunner)
	r := newTestRouter(t, fastRouterCfg(h.urls))

	// Find a spec whose ring primary is replica 0 so we know who holds
	// the in-flight job.
	ring := NewRing(h.urls, 0)
	var req serve.JobRequest
	for n := 2; ; n++ {
		req = serve.JobRequest{Workload: "matmul2d", N: n}
		if ring.Primary(CanonicalKey(req)) == h.urls[0] {
			break
		}
	}
	st, err := r.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is running on replica 0.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := r.Job(st.ID)
		if cur.State == serve.JobRunning && cur.Replica == h.urls[0] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started on %s: %+v", h.urls[0], cur)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := r.RemoveReplica(h.urls[0], false); err != nil {
		t.Fatalf("drain leave: %v", err)
	}
	// The replica must still be visible (draining) while its job runs.
	if got := r.health.State(h.urls[0]); got != StateDraining {
		t.Fatalf("leaving replica state = %s, want draining", got)
	}
	close(release)
	final := waitRouterDone(t, r, st.ID)
	if final.State != serve.JobDone || final.Replica != h.urls[0] {
		t.Fatalf("job = %s on %s, want done on the leaving replica (no failover)", final.State, final.Replica)
	}
	if final.Redispatches != 0 {
		t.Fatalf("drain leave caused %d redispatches", final.Redispatches)
	}
	// After the drain completes the replica leaves the health view.
	deadline = time.Now().Add(5 * time.Second)
	for r.health.Count() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("drained replica never removed from health view")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.Members(); len(got) != 1 || got[0] != h.urls[1] {
		t.Fatalf("members after drain leave = %v", got)
	}
}

// TestMembershipJoinReceivesTraffic pins that a joined replica actually
// serves jobs: after a join, some canonical keys route to it without
// any restart.
func TestMembershipJoinReceivesTraffic(t *testing.T) {
	h := newHarness(t, 2, nil)
	r := newTestRouter(t, fastRouterCfg(h.urls))
	extra := newHarness(t, 1, nil)
	if err := r.AddReplica(extra.urls[0]); err != nil {
		t.Fatal(err)
	}
	served := 0
	for n := 2; n < 60; n++ {
		st, err := r.Submit(serve.JobRequest{Workload: "matmul2d", N: n})
		if err != nil {
			t.Fatalf("Submit n=%d: %v", n, err)
		}
		st = waitRouterDone(t, r, st.ID)
		if st.State != serve.JobDone {
			t.Fatalf("n=%d: %s (%s)", n, st.State, st.Error)
		}
		if st.Replica == extra.urls[0] {
			served++
		}
	}
	if served == 0 {
		t.Fatal("joined replica served no jobs")
	}
}

// TestMembershipAutoEvict pins the janitor: a replica continuously down
// past EvictAfter is removed from the membership without operator
// action, and the eviction is counted and eventful.
func TestMembershipAutoEvict(t *testing.T) {
	h := newHarness(t, 2, nil)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	cfg := fastRouterCfg(append([]string{deadURL}, h.urls...))
	cfg.EvictAfter = 150 * time.Millisecond
	r := newTestRouter(t, cfg)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if members := r.Members(); len(members) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead replica never evicted; members = %v", r.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if evicts := r.Snapshot().MembershipEvicts; evicts != 1 {
		t.Fatalf("evicts = %d, want 1", evicts)
	}
	if r.health.Count() != 2 {
		t.Fatalf("health view still has %d replicas", r.health.Count())
	}
	// Live replicas must be untouched and still serving.
	st, err := r.Submit(serve.JobRequest{Workload: "matmul2d", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitRouterDone(t, r, st.ID); st.State != serve.JobDone {
		t.Fatalf("post-evict job %s (%s)", st.State, st.Error)
	}
	var snap Metrics
	b, _ := json.Marshal(r.Snapshot())
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics round-trip: %v", err)
	}
	if snap.MembershipEvicts != 1 {
		t.Fatalf("metrics evicts = %d", snap.MembershipEvicts)
	}
}
