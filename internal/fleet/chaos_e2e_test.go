package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"memsched/internal/serve"
	"memsched/internal/sim"
)

// replicaProc is one real memschedd child process.
type replicaProc struct {
	cmd    *exec.Cmd
	url    string
	stderr *bytes.Buffer
}

// startReplicas builds the memschedd binary once and starts n real
// replica processes on ephemeral ports, parsing the stdout
// port-discovery line each one prints.
func startReplicas(t *testing.T, n int) []*replicaProc {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "memschedd")
	if out, err := exec.Command(goBin, "build", "-o", bin, "memsched/cmd/memschedd").CombinedOutput(); err != nil {
		t.Fatalf("go build memschedd: %v\n%s", err, out)
	}

	procs := make([]*replicaProc, 0, n)
	t.Cleanup(func() {
		for _, p := range procs {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1", "-log-level", "warn")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr := new(bytes.Buffer)
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start replica %d: %v", i, err)
		}
		p := &replicaProc{cmd: cmd, stderr: stderr}
		procs = append(procs, p)

		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				p.url = strings.TrimSpace(rest)
				break
			}
		}
		if p.url == "" {
			t.Fatalf("replica %d printed no listening line; stderr: %s", i, stderr.String())
		}
		go func() { // keep stdout drained so the child never blocks
			for sc.Scan() {
			}
		}()
	}
	return procs
}

// TestChaosKillReplicaE2E is the fleet's proof artifact: three real
// memschedd processes behind an in-process (race-instrumented) router,
// a batch of real-simulator jobs in flight, and a kill -9 of a replica
// that is actively running one. Every accepted job must still complete,
// every result must be byte-identical to a single-node run of the same
// spec, and re-submitted specs must be served from the result cache —
// also byte-identical, and counted.
func TestChaosKillReplicaE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	procs := startReplicas(t, 3)
	urls := make([]string, len(procs))
	byURL := make(map[string]*replicaProc, len(procs))
	for i, p := range procs {
		urls[i] = p.url
		byURL[p.url] = p
	}

	r := newTestRouter(t, Config{
		Replicas:    urls,
		PollTimeout: 250 * time.Millisecond,
		JobTimeout:  90 * time.Second,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  200 * time.Millisecond,
		Health: HealthConfig{
			Interval:      50 * time.Millisecond,
			Timeout:       2 * time.Second,
			FailThreshold: 2,
		},
	})

	// Real-simulator specs sized to run long enough (workers=1 per
	// replica queues them) that a kill lands mid-flight.
	// Sizes calibrated to ~150-600ms each on the real simulator: long
	// enough that the kill lands while jobs are in flight, short enough
	// that the whole batch drains in seconds.
	specs := []serve.JobRequest{
		{Workload: "matmul2d", N: 250, GPUs: 2},
		{Workload: "matmul2d", N: 300, GPUs: 1},
		{Workload: "cholesky", N: 60, GPUs: 2},
		{Workload: "cholesky", N: 80, GPUs: 1},
		{Workload: "matmul3d", N: 40, GPUs: 2},
		{Workload: "matmul3d", N: 50, GPUs: 1},
		{Workload: "matmul2d", N: 280, GPUs: 2},
		{Workload: "cholesky", N: 70, GPUs: 1, Seed: 2},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, err := r.Submit(spec)
		if err != nil {
			t.Fatalf("submit spec %d: %v", i, err)
		}
		ids[i] = st.ID
	}

	// Find a replica actively running a job, then kill -9 it.
	var victim string
	deadline := time.Now().Add(20 * time.Second)
	for victim == "" {
		if time.Now().After(deadline) {
			t.Fatal("no job ever reached running state")
		}
		for _, st := range r.List() {
			if st.State == serve.JobRunning && st.Replica != "" {
				victim = st.Replica
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := byURL[victim].cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatalf("kill -9 %s: %v", victim, err)
	}
	byURL[victim].cmd.Wait()
	t.Logf("killed replica %s mid-load", victim)

	// Every accepted job completes despite the kill.
	results := make([]json.RawMessage, len(specs))
	for i, id := range ids {
		st := waitRouterDone(t, r, id)
		if st.State != serve.JobDone {
			t.Fatalf("job %d (%+v) after kill: state %s (%s)", i, specs[i], st.State, st.Error)
		}
		if st.Replica == victim {
			t.Fatalf("job %d claims completion on the killed replica", i)
		}
		results[i] = st.Result
	}
	m := r.Snapshot()
	if m.JobsDone != int64(len(specs)) || m.JobsFailed != 0 {
		t.Fatalf("metrics after kill: %d done / %d failed, want %d / 0",
			m.JobsDone, m.JobsFailed, len(specs))
	}
	if m.Failovers == 0 {
		t.Error("killed an active replica but counted no failover re-dispatches")
	}

	// Byte-identical to single-node: run every spec through one
	// in-process server with the real simulator and compare compacted
	// result bytes.
	single := serve.New(serve.Config{Workers: 2})
	defer single.Drain(30 * time.Second)
	var wg sync.WaitGroup
	singleRes := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec serve.JobRequest) {
			defer wg.Done()
			st, err := single.Submit(spec)
			if err != nil {
				errs[i] = err
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			st, err = single.Wait(ctx, st.ID)
			if err != nil || st.State != serve.JobDone {
				errs[i] = fmt.Errorf("single-node state %s: %v", st.State, err)
				return
			}
			singleRes[i], errs[i] = json.Marshal(st.Result)
		}(i, spec)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("single-node run %d: %v", i, errs[i])
		}
		var got bytes.Buffer
		if err := json.Compact(&got, results[i]); err != nil {
			t.Fatalf("routed result %d is not valid JSON: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), singleRes[i]) {
			t.Errorf("spec %d result differs from single-node:\nrouted: %s\nsingle: %s",
				i, got.Bytes(), singleRes[i])
		}
	}

	// Re-submitting each spec (different spelling: an explicit timeout)
	// must be served from the content-addressed cache, byte-identical,
	// and counted as hits.
	hitsBefore := r.Snapshot().Cache.Hits
	for i, spec := range specs {
		spec.TimeoutMS = 12345 // wall-time only: same canonical key
		st, err := r.Submit(spec)
		if err != nil {
			t.Fatalf("cache resubmit %d: %v", i, err)
		}
		st = waitRouterDone(t, r, st.ID)
		if !st.CacheHit {
			t.Fatalf("resubmit %d was not a cache hit (replica %s)", i, st.Replica)
		}
		if !bytes.Equal(st.Result, results[i]) {
			t.Fatalf("cached result %d not byte-identical to the original", i)
		}
	}
	if hits := r.Snapshot().Cache.Hits - hitsBefore; hits != int64(len(specs)) {
		t.Fatalf("cache counted %d hits for %d resubmits", hits, len(specs))
	}
}

// routerProc is a real memrouter child process with a write-ahead
// journal, plus the recovery summary it printed at startup.
type routerProc struct {
	cmd      *exec.Cmd
	url      string
	recovery string
	stderr   *bytes.Buffer
}

// startRouter builds and starts a real memrouter on an ephemeral port
// over the given replicas, journaling to journalPath, and parses both
// stdout contract lines: "listening on" and the journal recovery
// summary.
func startRouter(t *testing.T, journalPath string, replicas []string) *routerProc {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "memrouter")
	if out, err := exec.Command(goBin, "build", "-o", bin, "memsched/cmd/memrouter").CombinedOutput(); err != nil {
		t.Fatalf("go build memrouter: %v\n%s", err, out)
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-replicas", strings.Join(replicas, ","),
		"-journal", journalPath,
		"-no-hedge",
		"-poll-timeout", "250ms",
		"-backoff", "10ms",
		"-max-backoff", "200ms",
		"-health-interval", "50ms",
		"-health-fail-threshold", "2",
		"-log-level", "warn",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := new(bytes.Buffer)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start memrouter: %v", err)
	}
	p := &routerProc{cmd: cmd, stderr: stderr}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	})

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			p.url = strings.TrimSpace(rest)
			continue
		}
		if strings.Contains(line, "journal recovered:") {
			p.recovery = line
			break
		}
	}
	if p.url == "" || p.recovery == "" {
		t.Fatalf("memrouter printed no listening/recovery lines (url %q, recovery %q); stderr: %s",
			p.url, p.recovery, stderr.String())
	}
	go func() { // keep stdout drained so the child never blocks
		for sc.Scan() {
		}
	}()
	return p
}

// getJob fetches one job status over the wire; wait long-polls.
func getJob(t *testing.T, base, id string, wait bool) (JobStatus, int) {
	t.Helper()
	u := base + "/jobs/" + id
	if wait {
		u += "?wait=1"
	}
	cl := &http.Client{Timeout: 30 * time.Second}
	resp, err := cl.Get(u)
	if err != nil {
		return JobStatus{}, 0
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode
}

// TestChaosRouterKillRecoveryE2E is the durability proof artifact: a
// real memrouter process with a write-ahead journal takes a batch of
// real-simulator jobs, is killed with SIGKILL while some are still in
// flight, and a fresh process over the same journal finishes every one
// of them. Jobs that completed before the kill are re-served
// byte-identically from the journal; re-dispatched ones match a
// single-node run byte for byte — no accepted job is lost.
func TestChaosRouterKillRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	procs := startReplicas(t, 2)
	urls := make([]string, len(procs))
	for i, p := range procs {
		urls[i] = p.url
	}
	journal := filepath.Join(t.TempDir(), "jobs.journal")
	rt := startRouter(t, journal, urls)

	// Same calibrated spec mix as the replica-kill test: ~150-600ms each
	// on the real simulator, so the SIGKILL lands mid-batch with two
	// single-worker replicas draining it.
	specs := []serve.JobRequest{
		{Workload: "matmul2d", N: 250, GPUs: 2},
		{Workload: "matmul2d", N: 300, GPUs: 1},
		{Workload: "cholesky", N: 60, GPUs: 2},
		{Workload: "cholesky", N: 80, GPUs: 1},
		{Workload: "matmul3d", N: 40, GPUs: 2},
		{Workload: "matmul3d", N: 50, GPUs: 1},
		{Workload: "matmul2d", N: 280, GPUs: 2},
		{Workload: "cholesky", N: 70, GPUs: 1, Seed: 2},
	}
	cl := &http.Client{Timeout: 10 * time.Second}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		body, _ := json.Marshal(spec)
		resp, err := cl.Post(rt.url+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit spec %d: %v", i, err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit spec %d: status %d, decode %v", i, resp.StatusCode, err)
		}
		resp.Body.Close()
		ids[i] = st.ID
	}

	// Wait until the batch is partially done — at least one job finished
	// (so recovery has a completed record to re-serve) and at least one
	// still in flight (so the kill actually interrupts work) — capturing
	// the finished results as the byte-identity baseline.
	preKill := make(map[string]json.RawMessage)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("batch never reached a partially-done state (%d/%d done)", len(preKill), len(ids))
		}
		for _, id := range ids {
			if _, seen := preKill[id]; seen {
				continue
			}
			if st, code := getJob(t, rt.url, id, false); code == http.StatusOK && st.State == serve.JobDone {
				preKill[id] = st.Result
			}
		}
		if len(preKill) >= 1 && len(preKill) < len(ids) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := rt.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no journal close
		t.Fatalf("kill -9 memrouter: %v", err)
	}
	rt.cmd.Wait()
	t.Logf("killed memrouter with %d/%d jobs done", len(preKill), len(ids))

	// Restart over the same journal (new port — job IDs live in the
	// journal, not the socket) and check the recovery summary adds up.
	rt2 := startRouter(t, journal, urls)
	var complete, replayed, deduped int
	if _, err := fmt.Sscanf(rt2.recovery, "memrouter: journal recovered: %d complete, %d replayed, %d deduped",
		&complete, &replayed, &deduped); err != nil {
		t.Fatalf("unparseable recovery line %q: %v", rt2.recovery, err)
	}
	if complete < len(preKill) || replayed < 1 || complete+replayed != len(ids) || deduped != 0 {
		t.Fatalf("recovery %d complete / %d replayed / %d deduped with %d ids (%d done pre-kill)",
			complete, replayed, deduped, len(ids), len(preKill))
	}

	// Zero lost jobs: every pre-crash ID reaches done on the new process.
	results := make(map[string]json.RawMessage, len(ids))
	for _, id := range ids {
		waitDeadline := time.Now().Add(60 * time.Second)
		for {
			st, code := getJob(t, rt2.url, id, true)
			if code == http.StatusOK && st.State == serve.JobDone {
				results[id] = st.Result
				break
			}
			if code == http.StatusOK && st.State.Terminal() {
				t.Fatalf("job %s after recovery: %s (%s)", id, st.State, st.Error)
			}
			if code == http.StatusNotFound {
				t.Fatalf("job %s lost across the restart", id)
			}
			if time.Now().After(waitDeadline) {
				t.Fatalf("job %s never finished after recovery (last code %d)", id, code)
			}
		}
	}

	// Jobs that completed before the kill are re-served byte-identically
	// from the journal — never re-executed into a fresh encoding.
	for id, want := range preKill {
		if !bytes.Equal(results[id], want) {
			t.Errorf("job %s result changed across the crash:\npre:  %s\npost: %s", id, want, results[id])
		}
	}

	// Replayed results are byte-identical to a single-node run: the
	// determinism contract survives the crash.
	single := serve.New(serve.Config{Workers: 2})
	defer single.Drain(30 * time.Second)
	for i, spec := range specs {
		st, err := single.Submit(spec)
		if err != nil {
			t.Fatalf("single-node submit %d: %v", i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		st, err = single.Wait(ctx, st.ID)
		cancel()
		if err != nil || st.State != serve.JobDone {
			t.Fatalf("single-node run %d: state %s, %v", i, st.State, err)
		}
		want, _ := json.Marshal(st.Result)
		var got bytes.Buffer
		if err := json.Compact(&got, results[ids[i]]); err != nil {
			t.Fatalf("recovered result %d invalid JSON: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("spec %d recovered result differs from single-node:\nrouted: %s\nsingle: %s",
				i, got.Bytes(), want)
		}
	}
}

// TestChaosMembershipChurnUnderLoad joins a replica and drain-leaves
// another while a stream of jobs is in flight: nothing fails, nothing
// is lost, the joined replica picks up real traffic, and no job
// submitted after the leave lands on the departed replica.
func TestChaosMembershipChurnUnderLoad(t *testing.T) {
	runner := func(i int) serve.Runner {
		return func(ctx context.Context, req serve.JobRequest) (*sim.Result, error) {
			select { // slow enough that churn overlaps in-flight work
			case <-time.After(3 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return okRes(req), nil
		}
	}
	h := newHarness(t, 3, runner)
	extra := newHarness(t, 1, runner)
	r := newTestRouter(t, fastRouterCfg(h.urls))

	var ids []string
	n := 2
	submitBatch := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			st, err := r.Submit(serve.JobRequest{Workload: "matmul2d", N: n})
			if err != nil {
				t.Fatalf("submit n=%d: %v", n, err)
			}
			n++
			ids = append(ids, st.ID)
		}
	}

	submitBatch(20)
	if err := r.AddReplica(extra.urls[0]); err != nil {
		t.Fatalf("join under load: %v", err)
	}
	submitBatch(20)
	if err := r.RemoveReplica(h.urls[0], false); err != nil { // drain-leave
		t.Fatalf("drain-leave under load: %v", err)
	}
	postLeave := len(ids)
	submitBatch(20)

	joinedServed := 0
	for i, id := range ids {
		st := waitRouterDone(t, r, id)
		if st.State != serve.JobDone {
			t.Fatalf("job %d (%s) under churn: %s (%s)", i, id, st.State, st.Error)
		}
		if st.Replica == extra.urls[0] {
			joinedServed++
		}
		if i >= postLeave && st.Replica == h.urls[0] {
			t.Fatalf("job %d submitted after the leave ran on the departed replica", i)
		}
	}
	if joinedServed == 0 {
		t.Fatal("joined replica served nothing under churn")
	}
	m := r.Snapshot()
	if m.JobsDone != int64(len(ids)) || m.JobsFailed != 0 {
		t.Fatalf("churn metrics: %d done / %d failed, want %d / 0", m.JobsDone, m.JobsFailed, len(ids))
	}
	if m.MembershipJoins != 1 || m.MembershipLeaves != 1 || m.MembershipEvicts != 0 {
		t.Fatalf("membership counters %d/%d/%d, want 1/1/0", m.MembershipJoins, m.MembershipLeaves, m.MembershipEvicts)
	}
	members := r.Members()
	if len(members) != 3 {
		t.Fatalf("members after churn = %v", members)
	}
	for _, mem := range members {
		if mem == h.urls[0] {
			t.Fatalf("departed replica still a member: %v", members)
		}
	}
}

// TestChaosSlowReplicaHedgeRescue puts a latency-injecting proxy in
// front of the ring-primary replica and proves the hedge rescues the
// tail: the job finishes on the fast sibling in a fraction of the
// injected delay instead of waiting the slow replica out.
func TestChaosSlowReplicaHedgeRescue(t *testing.T) {
	const delay = 700 * time.Millisecond
	h := newHarness(t, 2, nil)

	target, err := url.Parse(h.urls[0])
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	// The losing (hedged-around) dispatch is canceled by design; keep its
	// proxy error out of the test log.
	rp.ErrorLog = log.New(io.Discard, "", 0)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		time.Sleep(delay)
		rp.ServeHTTP(w, req)
	}))
	defer slow.Close()

	urls := []string{slow.URL, h.urls[1]}
	cfg := fastRouterCfg(urls)
	cfg.DisableHedge = false
	cfg.HedgeMinDelay = 30 * time.Millisecond
	cfg.Health.Timeout = 2 * time.Second // probes through the proxy are slow, not down
	r := newTestRouter(t, cfg)

	// Pick a spec whose ring primary is the slow proxy, so the first
	// dispatch is guaranteed to hit the injected latency.
	ring := NewRing(urls, 0)
	var req serve.JobRequest
	for n := 2; ; n++ {
		req = serve.JobRequest{Workload: "matmul2d", N: n}
		if ring.Primary(CanonicalKey(req)) == slow.URL {
			break
		}
	}

	start := time.Now()
	st, err := r.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st = waitRouterDone(t, r, st.ID)
	elapsed := time.Since(start)
	if st.State != serve.JobDone {
		t.Fatalf("job %s (%s)", st.State, st.Error)
	}
	if st.Replica != h.urls[1] {
		t.Fatalf("job finished on %s, want the fast replica %s", st.Replica, h.urls[1])
	}
	if !st.Hedged {
		t.Fatal("job not marked hedged")
	}
	// The rescue claim: total latency is bounded by the hedge path, not
	// the injected delay the primary dispatch is still stuck behind.
	if elapsed >= delay {
		t.Fatalf("hedge did not rescue the tail: %v elapsed with %v injected delay", elapsed, delay)
	}
	m := r.Snapshot()
	if m.HedgesStarted < 1 || m.HedgeWins < 1 {
		t.Fatalf("hedge counters %d launched / %d wins, want >= 1 each", m.HedgesStarted, m.HedgeWins)
	}
	t.Logf("hedge rescued: %v elapsed vs %v injected delay", elapsed, delay)
}
