package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memsched/internal/expr"
	"memsched/internal/fault"
	"memsched/internal/fleet"
	"memsched/internal/metrics"
	"memsched/internal/platform"
	"memsched/internal/sched"
	"memsched/internal/serve"
	"memsched/internal/sim"
	"memsched/internal/taskgraph"
	"memsched/internal/workload"
)

const (
	fleetReplicas = 2
	// fleetClients closed-loop clients: memsched's callers wait on each
	// job before sending the next, and two match the two cores the
	// benchmark was sized on.
	fleetClients = 2
	// fleetProcs is GOMAXPROCS during the fleet's set-up and timed
	// phase, so the whole fleet shares one core. Every job is a chain of
	// sub-millisecond hops between goroutines, and at GOMAXPROCS 2 the
	// chains amplify CPU steal on a shared 2-vCPU VM: over seven
	// interleaved 12 s runs, batch wall time spread 0.82 (IQR over
	// median) at 2 and 0.18 at 1, and batch CPU time 0.20 and 0.09.
	fleetProcs = 1
	// fleetBatch jobs make one pass.
	fleetBatch = 1000
	// fleetPool specs complete before timing; every repeat draws one.
	fleetPool = 32
	// fleetSetupReps set-ups precede the timed phase; setup_s is their
	// median.
	fleetSetupReps = 5
	// fleetHeapBatches bounds the batches peak_heap_mb is taken over.
	// The router and replicas keep every job they served, so the heap
	// grows with the jobs done; a fixed job count keeps a throughput gain
	// from reading as a memory regression.
	fleetHeapBatches = 10
	// scratchAppends is how many Accept and Complete records the traced
	// run times on a scratch journal.
	scratchAppends = 200
	// fleetTmp holds the journals, inside the checkout.
	fleetTmp = ".bench_build/tmp"
)

// jobOutcome is what the client saw of one job. It carries no job id,
// trace or timestamps: the output check must not depend on them.
type jobOutcome struct {
	job          mixJob
	cacheHit     bool
	redispatches int
	result       json.RawMessage
	err          error
	sojourn      time.Duration
}

// statusBody is the part of a router job status the client decodes.
// The id is read only to poll the job.
type statusBody struct {
	ID           string          `json:"id"`
	State        serve.JobState  `json:"state"`
	CacheHit     bool            `json:"cache_hit"`
	Redispatches int             `json:"redispatches"`
	Error        string          `json:"error"`
	Result       json.RawMessage `json:"result"`
}

// loopback is one HTTP server on 127.0.0.1.
type loopback struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, nil
}

func (l *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// fleetEnv is a router over two replicas, all in this process behind
// their real handlers on loopback, with the router journaling to a
// temporary directory.
type fleetEnv struct {
	dir      string
	journal  *fleet.Journal
	replicas []*serve.Server
	router   *fleet.Router
	servers  []*loopback
	url      string
	client   *http.Client
	tap      *fleetTap
}

func startFleet(base string, tap *fleetTap) (env *fleetEnv, err error) {
	env = &fleetEnv{tap: tap, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	defer func() {
		if err != nil {
			env.close()
			env = nil
		}
	}()
	if env.dir, err = os.MkdirTemp(base, "fleet-"); err != nil {
		return env, err
	}
	var urls []string
	for i := 0; i < fleetReplicas; i++ {
		s := serve.New(serve.Config{Workers: 1})
		env.replicas = append(env.replicas, s)
		var h http.Handler = s.Handler()
		if tap != nil {
			h = tap.replica(h)
		}
		l, err := serveLoopback(h)
		if err != nil {
			return env, err
		}
		env.servers = append(env.servers, l)
		urls = append(urls, l.url)
	}
	if env.journal, err = fleet.OpenJournal(filepath.Join(env.dir, "router.journal")); err != nil {
		return env, err
	}
	cfg := fleet.Config{Replicas: urls, Journal: env.journal}
	if tap != nil {
		cfg.HTTPClient = &http.Client{Transport: tap.transport(http.DefaultTransport)}
	}
	if env.router, err = fleet.New(cfg); err != nil {
		return env, err
	}
	env.router.Start()
	var h http.Handler = env.router.Handler()
	if tap != nil {
		h = tap.routerAccept(h)
	}
	l, err := serveLoopback(h)
	if err != nil {
		return env, err
	}
	env.servers = append(env.servers, l)
	env.url = l.url
	for _, u := range append(urls, env.url) {
		if err := env.awaitReady(u); err != nil {
			return env, err
		}
	}
	return env, nil
}

// awaitReady polls url's /readyz until it answers 200.
func (e *fleetEnv) awaitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := e.client.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s (last error %v)", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close drains the router, then the replicas, and removes the journal.
func (e *fleetEnv) close() {
	if e.router != nil {
		if err := e.router.Drain(10 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: router drain: %v\n", err)
		}
	}
	for i := len(e.servers) - 1; i >= 0; i-- {
		e.servers[i].close()
	}
	for _, s := range e.replicas {
		if err := s.Drain(10 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: replica drain: %v\n", err)
		}
	}
	if e.journal != nil {
		if err := e.journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close journal: %v\n", err)
		}
	}
	e.client.CloseIdleConnections()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// runJob submits one job and long-polls it until it is terminal: the
// closed-loop client. trace, when non-zero, is sent as the job's trace
// ID so a traced run can join the spans of every layer.
func (e *fleetEnv) runJob(job mixJob, trace uint64) jobOutcome {
	o := jobOutcome{job: job}
	t0 := time.Now()
	st, err := e.submit(job.Spec, trace)
	for err == nil && !st.State.Terminal() {
		st, err = e.wait(st.ID)
	}
	o.sojourn = time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}
	if st.State != serve.JobDone {
		o.err = fmt.Errorf("job %s: %s", st.State, st.Error)
	}
	o.cacheHit, o.redispatches, o.result = st.CacheHit, st.Redispatches, st.Result
	if e.tap != nil {
		e.tap.log.add(span{ID: strconv.FormatUint(trace, 10), Name: "client.job",
			Start: e.tap.log.at(t0), End: e.tap.log.at(t0.Add(o.sojourn))})
	}
	return o
}

func (e *fleetEnv) submit(spec serve.JobRequest, trace uint64) (statusBody, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return statusBody{}, err
	}
	req, err := http.NewRequest(http.MethodPost, e.url+"/jobs", bytes.NewReader(body))
	if err != nil {
		return statusBody{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != 0 {
		req.Header.Set(serve.TraceHeader, strconv.FormatUint(trace, 10))
	}
	return e.do(req, http.StatusAccepted)
}

func (e *fleetEnv) wait(id string) (statusBody, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.url+"/jobs/"+id+"?wait=1", nil)
	if err != nil {
		return statusBody{}, err
	}
	return e.do(req, http.StatusOK)
}

func (e *fleetEnv) do(req *http.Request, want int) (statusBody, error) {
	resp, err := e.client.Do(req)
	if err != nil {
		return statusBody{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return statusBody{}, err
	}
	if resp.StatusCode != want {
		return statusBody{}, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(raw))
	}
	var st statusBody
	if err := json.Unmarshal(raw, &st); err != nil {
		return statusBody{}, fmt.Errorf("decode status: %w", err)
	}
	return st, nil
}

// runJobs runs jobs through clients closed-loop clients and returns the
// outcomes in job order.
func (e *fleetEnv) runJobs(jobs []mixJob, clients int) []jobOutcome {
	out := make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				var trace uint64
				if e.tap != nil {
					trace = e.tap.nextTrace.Add(1)
				}
				out[i] = e.runJob(jobs[i], trace)
			}
		}()
	}
	wg.Wait()
	return out
}

// setUp starts a fleet and completes the repeat pool on it.
func setUp(base string, tap *fleetTap, pool []serve.JobRequest) (*fleetEnv, []jobOutcome, error) {
	env, err := startFleet(base, tap)
	if err != nil {
		return nil, nil, err
	}
	jobs := make([]mixJob, len(pool))
	for i, s := range pool {
		jobs[i] = mixJob{Spec: s}
	}
	warm := env.runJobs(jobs, 1)
	for _, o := range warm {
		if o.err != nil {
			env.close()
			return nil, nil, fmt.Errorf("warm pool: %w", o.err)
		}
	}
	return env, warm, nil
}

func runFleet(cfg runConfig) (*report, error) {
	base, err := filepath.Abs(fleetTmp)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	rep := &report{values: map[string]float64{}}
	procs := runtime.GOMAXPROCS(fleetProcs)
	fmt.Printf("fleet: GOMAXPROCS=%d for set-up and timed phase\n", fleetProcs)
	mix := newFleetMix(cfg.seed, fleetPool)
	var tap *fleetTap
	if cfg.trace {
		tap = newFleetTap()
	}

	// Set up several times, tearing down between set-ups outside the
	// timing, and keep the last fleet.
	reps := fleetSetupReps
	if cfg.trace {
		reps = 1
	}
	var env *fleetEnv
	var warm []jobOutcome
	var setups []float64
	for i := 0; i < reps; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		env, warm, err = setUp(base, tap, mix.Pool())
		if err != nil {
			return nil, fmt.Errorf("fleet set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()
	if tap != nil {
		tap.reset()
	}
	// The torn-down fleets are garbage; collect it so the heap window
	// measures the fleet under load only.
	runtime.GC()

	var ps passes
	var outcomes []jobOutcome
	start := time.Now()
	for ps.more(start, cfg.seconds) {
		jobs := mix.Batch(fleetBatch)
		var res []jobOutcome
		ps.measure(func() { res = env.runJobs(jobs, fleetClients) })
		outcomes = append(outcomes, res...)
	}
	elapsed := time.Since(start)
	snap := env.router.Snapshot()
	rep.values["setup_s"] = median(setups)

	// Everything below is outside the timed phase.
	runtime.GOMAXPROCS(procs)
	refs, err := references(append(append([]jobOutcome(nil), warm...), outcomes...))
	if err != nil {
		return nil, err
	}
	checkOutcomes(rep, warm, refs, false)
	hits, repeats := checkOutcomes(rep, outcomes, refs, true)
	fmt.Printf("mix: %d jobs, repeat share %.3f, cache_hit %d of %d repeats; %.1f jobs/s over %.2fs\n",
		len(outcomes), float64(repeats)/float64(len(outcomes)), hits, repeats,
		float64(len(outcomes))/elapsed.Seconds(), elapsed.Seconds())
	if snap.HedgesStarted > 0 {
		fmt.Printf("warning: %d hedged dispatches (a replica answered slower than the hedge delay)\n", snap.HedgesStarted)
	}

	// Batch b is outcomes[b*fleetBatch:(b+1)*fleetBatch].
	ops := opStats{class: p50}
	redispatches := 0
	for b := 0; b < len(ps.wall); b++ {
		var all, fresh, cached latencies
		for _, o := range outcomes[b*fleetBatch : (b+1)*fleetBatch] {
			if o.err != nil {
				continue
			}
			all.add(o.sojourn)
			if o.job.Repeat {
				cached.add(o.sojourn)
			} else {
				fresh.add(o.sojourn)
			}
			redispatches += o.redispatches
		}
		ops.pass(&all, &fresh, &cached)
	}

	v := rep.values
	ops.record(v, "sojourn", "fresh", "cached")
	if !cfg.trace {
		ps.record(v)
		peak := 0.0
		for i, h := range ps.heapMB {
			if i < fleetHeapBatches && h > peak {
				peak = h
			}
		}
		v["peak_heap_mb"] = peak
		return rep, nil
	}
	freshJobs := float64(len(outcomes) - repeats)
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	tap.mu.Lock()
	v["fleet.accept_ms"] = tap.accept.meanMS()
	v["fleet.dispatch_ms"] = ms(tap.dispatch.total) / freshJobs
	v["fleet.dispatch_rtts_per_job"] = float64(tap.dispatch.n) / freshJobs
	v["serve.submit_ms"] = tap.submit.meanMS()
	v["serve.wait_ms"] = tap.wait.meanMS()
	tap.mu.Unlock()
	if snap.Journal != nil {
		v["fleet.journal_records_per_job"] = float64(snap.Journal.Records) / float64(len(warm)+len(outcomes))
	}
	v["fleet.cache_hits"] = float64(hits)
	v["fleet.hedges"] = float64(snap.HedgesStarted)
	v["fleet.redispatches"] = float64(redispatches)
	appendMS, err := timeJournalAppends(env.dir, tap.log, warm[0])
	if err != nil {
		return nil, err
	}
	v["fleet.journal_append_ms"] = appendMS
	if err := tap.log.write(cfg.spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tap.log.spans), cfg.spansPath)
	return rep, nil
}

// checkOutcomes verifies each job against its reference and counts the
// attempted and failed jobs; it returns the cache hits and repeats seen.
func checkOutcomes(rep *report, outcomes []jobOutcome, refs map[string]serve.JobResult, counted bool) (hits, repeats int) {
	for _, o := range outcomes {
		if counted {
			rep.attempted++
		}
		if o.job.Repeat {
			repeats++
		}
		if o.err != nil {
			if counted {
				rep.failed++
			}
			rep.problem("%s: %v", fleet.CanonicalKey(o.job.Spec), o.err)
			continue
		}
		if o.cacheHit {
			hits++
		}
		key := fleet.CanonicalKey(o.job.Spec)
		if o.cacheHit != o.job.Repeat {
			rep.problem("%s: cache_hit %v for a %s job", key, o.cacheHit, map[bool]string{true: "repeat", false: "fresh"}[o.job.Repeat])
		}
		if err := checkJobResult(o.result, refs[key]); err != nil {
			rep.problem("%s: %v", key, err)
		}
	}
	if hits != repeats {
		rep.problem("%d cache hits for %d repeats", hits, repeats)
	}
	return hits, repeats
}

// references computes the in-process result of every distinct spec the
// outcomes carry, on all cores.
func references(outcomes []jobOutcome) (map[string]serve.JobResult, error) {
	var keys []string
	specs := map[string]serve.JobRequest{}
	for _, o := range outcomes {
		k := fleet.CanonicalKey(o.job.Spec)
		if _, ok := specs[k]; !ok {
			specs[k] = o.job.Spec
			keys = append(keys, k)
		}
	}
	results := make([]serve.JobResult, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				results[i], errs[i] = referenceResult(specs[keys[i]])
			}
		}()
	}
	wg.Wait()
	refs := make(map[string]serve.JobResult, len(keys))
	for i, k := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference %s: %w", k, errs[i])
		}
		refs[k] = results[i]
	}
	return refs, nil
}

// referenceResult runs req in process, as a replica would: the instance
// table mirrors the daemon's, and the result is the daemon's JobResult
// of the normalized request.
func referenceResult(req serve.JobRequest) (serve.JobResult, error) {
	req.Normalize()
	var inst *taskgraph.Instance
	switch req.Workload {
	case "matmul2d":
		inst = workload.Matmul2D(req.N)
	case "matmul2d-rand":
		inst = workload.Matmul2DRandomized(req.N, req.Seed)
	case "matmul3d":
		inst = workload.Matmul3D(req.N)
	case "cholesky":
		inst = workload.Cholesky(req.N)
	case "sparse2d":
		inst = workload.Sparse2D(req.N, req.Keep, req.Seed)
	default:
		return serve.JobResult{}, fmt.Errorf("unknown workload %q", req.Workload)
	}
	strat, err := sched.ByName(req.Strategy)
	if err != nil {
		return serve.JobResult{}, err
	}
	plan, err := fault.ParseSpec(req.Faults)
	if err != nil {
		return serve.JobResult{}, err
	}
	plat := platform.V100(req.GPUs)
	if req.MemMB > 0 {
		plat.MemoryBytes = req.MemMB * platform.MB
	}
	nsPerOp := 0.0
	if req.Cost {
		nsPerOp = sim.DefaultNsPerOp
	}
	res, err := expr.RunOneFaulty(context.Background(), inst, strat, plat, nsPerOp, req.Seed, false, plan)
	if err != nil {
		return serve.JobResult{}, err
	}
	return serve.JobResult{Row: metrics.FromResult("serve", res), Faults: res.Faults}, nil
}

// timeJournalAppends times Accept and Complete on a scratch journal,
// the journal's only write paths, and returns the mean append in ms.
func timeJournalAppends(dir string, log *spanLog, sample jobOutcome) (float64, error) {
	j, err := fleet.OpenJournal(filepath.Join(dir, "scratch.journal"))
	if err != nil {
		return 0, err
	}
	defer j.Close()
	key := fleet.CanonicalKey(sample.job.Spec)
	var total time.Duration
	for i := 0; i < scratchAppends; i++ {
		id := fmt.Sprintf("scratch-%06d", i)
		t0 := time.Now()
		if err := j.Accept(id, key, uint64(i+1), sample.job.Spec, t0); err != nil {
			return 0, fmt.Errorf("scratch journal accept: %w", err)
		}
		t1 := time.Now()
		if err := j.Complete(id, serve.JobDone, sample.result, "", t1); err != nil {
			return 0, fmt.Errorf("scratch journal complete: %w", err)
		}
		t2 := time.Now()
		total += t2.Sub(t0)
		log.add(span{ID: id, Name: "fleet.journal_accept", Start: log.at(t0), End: log.at(t1)})
		log.add(span{ID: id, Name: "fleet.journal_complete", Start: log.at(t1), End: log.at(t2)})
	}
	return float64(total.Nanoseconds()) / 1e6 / (2 * scratchAppends), nil
}

// fleetTap times the fleet's HTTP seams for a traced run: the router's
// accept handler, the router's dispatch transport, and the replicas'
// submit and wait handlers. Spans carry the client-chosen trace ID,
// which the router propagates to the replicas on submission; a
// replica's job id is mapped back to it from the submission response.
type fleetTap struct {
	log       *spanLog
	nextTrace atomic.Uint64

	mu                             sync.Mutex
	accept, dispatch, submit, wait tally
	remote                         map[string]string // replica host + "/" + job id -> trace
}

type tally struct {
	n     int64
	total time.Duration
}

func (t *tally) add(d time.Duration) { t.n++; t.total += d }

func (t tally) meanMS() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.total.Nanoseconds()) / 1e6 / float64(t.n)
}

func newFleetTap() *fleetTap {
	return &fleetTap{log: newSpanLog(), remote: map[string]string{}}
}

// reset zeroes the tallies so they cover the timed phase only.
func (t *fleetTap) reset() {
	t.mu.Lock()
	t.accept, t.dispatch, t.submit, t.wait = tally{}, tally{}, tally{}, tally{}
	t.mu.Unlock()
}

func (t *fleetTap) record(tl *tally, name, trace string, t0, t1 time.Time) {
	t.mu.Lock()
	tl.add(t1.Sub(t0))
	t.mu.Unlock()
	t.log.add(span{ID: trace, Name: name, Parent: "client.job", Start: t.log.at(t0), End: t.log.at(t1)})
}

func (t *fleetTap) remoteTrace(host, path string) string {
	id := strings.TrimPrefix(path, "/jobs/")
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.remote[host+"/"+id]
}

// routerAccept times the router's POST /jobs handler.
func (t *fleetTap) routerAccept(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/jobs" {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t.record(&t.accept, "fleet.accept", r.Header.Get(serve.TraceHeader), t0, time.Now())
	})
}

// replica times a replica's POST /jobs and GET /jobs/{id} handlers.
func (t *fleetTap) replica(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t1 := time.Now()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/jobs":
			t.record(&t.submit, "serve.submit", r.Header.Get(serve.TraceHeader), t0, t1)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/jobs/"):
			t.record(&t.wait, "serve.wait", t.remoteTrace(r.Host, r.URL.Path), t0, t1)
		}
	})
}

// transport times each router-to-replica round trip.
func (t *fleetTap) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		t0 := time.Now()
		resp, err := base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		trace := req.Header.Get(serve.TraceHeader)
		if req.Method == http.MethodPost {
			// Read the replica's job id so its later polls join the trace.
			raw, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			resp.Body = io.NopCloser(bytes.NewReader(raw))
			if rerr != nil {
				return resp, nil
			}
			var st struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(raw, &st) == nil && st.ID != "" {
				t.mu.Lock()
				t.remote[req.URL.Host+"/"+st.ID] = trace
				t.mu.Unlock()
			}
		} else {
			trace = t.remoteTrace(req.URL.Host, req.URL.Path)
		}
		// A poll's body is still streaming; its round trip is timed to
		// the response headers, which a long-poll sends at the end.
		t.record(&t.dispatch, "fleet.dispatch", trace, t0, time.Now())
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
