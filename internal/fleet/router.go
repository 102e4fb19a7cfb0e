package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"memsched/internal/obs"
	"memsched/internal/serve"
)

// Config tunes a Router. The zero value of every field selects the
// documented default; only Replicas is required.
type Config struct {
	// Replicas are the memschedd base URLs ("http://host:port") of the
	// initial membership; AddReplica/RemoveReplica change the set at
	// runtime.
	Replicas []string
	// VNodes is the consistent-hash virtual-node count per replica
	// (default DefaultVNodes).
	VNodes int

	// MaxInFlight bounds the router's accepted-but-unfinished jobs;
	// submissions beyond it are shed with 429 (default 256). This is the
	// explicit-shed half of graceful degradation: when the fleet
	// saturates, excess load is refused at the door with a Retry-After
	// rather than queued into oblivion.
	MaxInFlight int
	// JobTimeout bounds one job end to end, across every failover and
	// hedge (default 5m).
	JobTimeout time.Duration
	// PollTimeout bounds one ?wait=1 long-poll to a replica (default
	// 2s). Shorter polls re-check replica health sooner; longer polls
	// cost fewer requests.
	PollTimeout time.Duration
	// MaxAttempts bounds dispatch attempts per job across all replicas
	// (default 3 per replica, minimum 4).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the delay before re-trying when
	// no replica is currently eligible (defaults 50ms and 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// BreakerThreshold consecutive dispatch failures open a replica's
	// circuit breaker for BreakerCooldown before a half-open probe
	// (defaults 3 and 5s; negative threshold disables the breakers).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// HedgeQuantile picks the sojourn quantile that arms the hedge timer
	// (default 0.95): a job still unfinished after the fleet's q-th
	// latency percentile gets a second dispatch on the next preferred
	// replica, first result wins. HedgeMinDelay floors the timer while
	// the histogram is cold (default 250ms). DisableHedge turns hedging
	// off.
	HedgeQuantile float64
	HedgeMinDelay time.Duration
	DisableHedge  bool

	// CacheEntries/CacheBytes bound the content-addressed result cache
	// (defaults DefaultCacheEntries/DefaultCacheBytes); DisableCache
	// turns it off.
	CacheEntries int
	CacheBytes   int64
	DisableCache bool

	// MaxN and MaxGPUs are the local admission bounds, mirroring the
	// replica defaults (300 and 8) so an invalid job is a local 400, not
	// a wasted dispatch.
	MaxN    int
	MaxGPUs int

	// Health tunes the replica prober.
	Health HealthConfig

	// Journal is the write-ahead job journal (nil runs without
	// durability). The router journals accept before acknowledging a
	// submission and complete on every terminal transition; a journal
	// opened over a previous run's file replays its incomplete jobs.
	Journal *Journal
	// EvictAfter auto-removes a replica from the membership once it has
	// been continuously down this long (0 disables auto-eviction). The
	// last member is never evicted.
	EvictAfter time.Duration

	// HTTPClient overrides the dispatch client (nil builds one without a
	// global timeout — per-request contexts bound everything, and a
	// global timeout would sever long-polls).
	HTTPClient *http.Client

	// Logger receives structured router logs (nil discards).
	Logger *slog.Logger
	// TraceSpanCap/TraceEventCap bound the flight-recorder rings
	// (defaults 4096/1024); TraceSample records every TraceSample-th
	// job's lifecycle span (default 1).
	TraceSpanCap  int
	TraceEventCap int
	TraceSample   int

	// now is the clock seam for tests (nil uses time.Now).
	now func() time.Time
}

func (c *Config) applyDefaults() {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.PollTimeout <= 0 {
		c.PollTimeout = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3 * len(c.Replicas)
		if c.MaxAttempts < 4 {
			c.MaxAttempts = 4
		}
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = 250 * time.Millisecond
	}
	if c.MaxN <= 0 {
		c.MaxN = 300
	}
	if c.MaxGPUs <= 0 {
		c.MaxGPUs = 8
	}
	if c.TraceSpanCap == 0 {
		c.TraceSpanCap = 4096
	}
	if c.TraceEventCap == 0 {
		c.TraceEventCap = 1024
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Router shards jobs across memschedd replicas: consistent hashing
// picks the replica, health checks and per-replica breakers steer
// around dead or misbehaving ones, lost jobs are re-dispatched (safe
// because results are bit-deterministic), stragglers are hedged, and
// repeated specs are answered from the result cache without touching a
// replica at all. Create with New, start with Start, stop with Drain.
type Router struct {
	cfg     Config
	ring    *Ring
	cache   *Cache
	health  *Health
	breaker *serve.Breaker // keyed by replica URL
	bo      serve.Backoff
	tracer  *obs.Tracer
	log     *slog.Logger
	client  *http.Client

	baseCtx    context.Context
	baseCancel context.CancelFunc
	stopOnce   sync.Once

	// sojourn tracks end-to-end latency of dispatched jobs (cache hits
	// excluded so instant answers don't drag the hedge quantile to
	// zero); dispatchDur tracks one dispatch's accept-to-terminal time.
	sojourn     obs.Histogram
	dispatchDur obs.Histogram

	journal *Journal

	mu       sync.Mutex
	jobs     map[string]*rjob
	order    []string
	seq      int64
	inflight int
	draining bool
	started  time.Time
	rng      *rand.Rand
	// dispActive counts in-flight dispatches per replica; drain-aware
	// membership leave waits for a replica's count to reach zero.
	dispActive map[string]int
	// Recovered jobs staged by New for Start to launch: one driver per
	// unique canonical key, followers adopt their leader's outcome.
	recLeaders   []*rjob
	recFollowers []recFollower
	recStats     RecoveryStats

	// Counters, guarded by mu.
	ctrSubmitted, ctrDone, ctrFailed, ctrCanceled               int64
	ctrRejInvalid, ctrRejShed, ctrRejDraining, ctrRejNoReplicas int64
	ctrDispatches, ctrDispatchErrs, ctrFailovers                int64
	ctrHedges, ctrHedgeWins                                     int64
	ctrCacheServed                                              int64
	ctrJoins, ctrLeaves, ctrEvicts                              int64
	ctrJournalErrs                                              int64

	wg        sync.WaitGroup // job drivers
	janitorWg sync.WaitGroup // auto-evict loop
}

// recFollower pairs a recovered job with the leader whose outcome it
// adopts (both share one canonical key, so one re-execution serves all).
type recFollower struct {
	j      *rjob
	leader *rjob
}

// RecoveryStats summarizes a journal-backed startup.
type RecoveryStats struct {
	// Complete jobs were re-registered terminal from journaled results.
	Complete int `json:"complete"`
	// Replayed jobs had no terminal record and were re-dispatched.
	Replayed int `json:"replayed"`
	// Deduped counts replayed jobs that shared a canonical key with an
	// earlier one and rode its driver instead of dispatching again.
	Deduped int `json:"deduped"`
}

// rjob is the router-side job record; mutable fields are guarded by
// Router.mu.
type rjob struct {
	id      string
	req     serve.JobRequest // canonical form
	key     string           // CanonicalKey(req)
	trace   uint64
	sampled bool

	state   serve.JobState
	errMsg  string
	result  json.RawMessage // verbatim replica result bytes
	replica string          // serving (or winning) replica
	remote  string          // job id on that replica

	cacheHit     bool
	hedged       bool
	redispatches int

	submitted time.Time
	finished  time.Time

	cancelRequested bool
	cancel          context.CancelFunc
	done            chan struct{}
}

// JobStatus is the router's client-visible job snapshot.
type JobStatus struct {
	ID    string         `json:"id"`
	State serve.JobState `json:"state"`
	// Trace correlates the router's spans with the replica's: the same
	// ID is propagated on the forwarded submission.
	Trace uint64 `json:"trace,omitempty"`
	// Key is the canonical job key the job was sharded and cached by.
	Key     string           `json:"key"`
	Request serve.JobRequest `json:"request"`
	// Replica/ReplicaJob locate the execution that produced (or is
	// producing) the result; empty for cache hits.
	Replica    string `json:"replica,omitempty"`
	ReplicaJob string `json:"replica_job,omitempty"`
	// CacheHit marks a job answered from the result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Hedged marks a job that got a second dispatch; Redispatches counts
	// failover re-dispatches after a replica loss.
	Hedged       bool   `json:"hedged,omitempty"`
	Redispatches int    `json:"redispatches,omitempty"`
	Error        string `json:"error,omitempty"`
	// Result is the replica's result object, byte-for-byte: the router
	// never re-encodes it, so a routed result, a failed-over result and
	// a cached result are all identical to a single-node run's.
	Result      json.RawMessage `json:"result,omitempty"`
	SubmittedMS int64           `json:"submitted_unix_ms,omitempty"`
	FinishedMS  int64           `json:"finished_unix_ms,omitempty"`
}

func (j *rjob) status() JobStatus {
	st := JobStatus{
		ID:           j.id,
		State:        j.state,
		Trace:        j.trace,
		Key:          j.key,
		Request:      j.req,
		Replica:      j.replica,
		ReplicaJob:   j.remote,
		CacheHit:     j.cacheHit,
		Hedged:       j.hedged,
		Redispatches: j.redispatches,
		Error:        j.errMsg,
		Result:       j.result,
	}
	if !j.submitted.IsZero() {
		st.SubmittedMS = j.submitted.UnixMilli()
	}
	if !j.finished.IsZero() {
		st.FinishedMS = j.finished.UnixMilli()
	}
	return st
}

// New builds a router over cfg.Replicas. Call Start to launch the
// health prober before submitting jobs.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	seenReplica := make(map[string]bool, len(cfg.Replicas))
	for _, rep := range cfg.Replicas {
		if rep == "" {
			return nil, fmt.Errorf("fleet: empty replica URL")
		}
		if seenReplica[rep] {
			return nil, fmt.Errorf("fleet: duplicate replica %q", rep)
		}
		seenReplica[rep] = true
	}
	cfg.applyDefaults()
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{}
	}
	r := &Router{
		cfg:        cfg,
		ring:       NewRing(cfg.Replicas, cfg.VNodes),
		breaker:    serve.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.now),
		bo:         serve.Backoff{Base: cfg.BaseBackoff, Max: cfg.MaxBackoff},
		tracer:     obs.NewTracer(cfg.TraceSpanCap, cfg.TraceEventCap, cfg.TraceSample),
		log:        log,
		client:     client,
		journal:    cfg.Journal,
		jobs:       make(map[string]*rjob),
		dispActive: make(map[string]int),
		started:    cfg.now(),
		rng:        rand.New(rand.NewSource(cfg.now().UnixNano())),
	}
	if !cfg.DisableCache {
		r.cache = NewCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	r.baseCtx, r.baseCancel = context.WithCancel(context.Background())
	r.health = NewHealth(cfg.Replicas, cfg.Health, nil, r.onReplicaChange)
	if r.journal != nil {
		r.loadJournal()
	}
	return r, nil
}

// loadJournal folds a pre-existing journal into the job table:
// completed jobs become terminal records (done results also seed the
// cache), incomplete ones are staged for replay — one driver per unique
// canonical key, every other job with that key becomes a follower of it
// (the "dedupe by job ID + canonical key" half of recovery).
func (r *Router) loadJournal() {
	complete, incomplete := r.journal.Recovered()
	var maxSeq int64
	noteSeq := func(id string) {
		var n int64
		if _, err := fmt.Sscanf(id, "rjob-%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
	}
	leaders := make(map[string]*rjob)
	for _, rec := range append(complete, incomplete...) {
		noteSeq(rec.ID)
		j := &rjob{
			id: rec.ID, req: rec.Req, key: rec.Key, trace: rec.Trace,
			submitted: time.UnixMilli(rec.SubmittedMS),
			done:      make(chan struct{}),
		}
		r.jobs[j.id] = j
		r.order = append(r.order, j.id)
		if rec.State.Terminal() {
			j.state, j.errMsg, j.result = rec.State, rec.Error, rec.Result
			j.finished = time.UnixMilli(rec.FinishedMS)
			close(j.done)
			if rec.State == serve.JobDone && r.cache != nil && len(rec.Result) > 0 {
				r.cache.Put(j.key, rec.Result)
			}
			continue
		}
		j.state = serve.JobQueued
		r.inflight++
		if lead, ok := leaders[j.key]; ok {
			r.recFollowers = append(r.recFollowers, recFollower{j: j, leader: lead})
			r.recStats.Deduped++
		} else {
			leaders[j.key] = j
			r.recLeaders = append(r.recLeaders, j)
		}
	}
	// IDs are zero-padded, so lexicographic order restores accept order
	// across the complete/incomplete split.
	sort.Strings(r.order)
	if r.seq < maxSeq {
		r.seq = maxSeq
	}
	r.recStats.Complete = len(complete)
	r.recStats.Replayed = len(incomplete)
}

// Start launches the health prober, the auto-evict janitor, and the
// drivers of any jobs recovered from the journal.
func (r *Router) Start() {
	r.health.Start()
	if r.cfg.EvictAfter > 0 {
		r.janitorWg.Add(1)
		go r.evictLoop()
	}
	r.mu.Lock()
	leaders, followers := r.recLeaders, r.recFollowers
	r.recLeaders, r.recFollowers = nil, nil
	for range leaders {
		r.wg.Add(1)
	}
	for range followers {
		r.wg.Add(1)
	}
	r.mu.Unlock()
	now := r.now().UnixNano()
	for _, j := range leaders {
		r.tracer.Event(obs.Span{
			Trace: j.trace, Job: j.id, Key: j.key, Kind: obs.KindRecover,
			Start: now, End: now, Note: "replayed from journal",
		})
		r.log.Info("replaying journaled job", obs.TraceAttr(j.trace), "job", j.id, "key", j.key)
		go r.drive(j)
	}
	for _, f := range followers {
		r.tracer.Event(obs.Span{
			Trace: f.j.trace, Job: f.j.id, Key: f.j.key, Kind: obs.KindRecover,
			Start: now, End: now, Note: "replayed from journal (following " + f.leader.id + ")",
		})
		go r.runFollower(f.j, f.leader)
	}
}

// runFollower completes a recovered job by adopting its leader's
// outcome: both share one canonical key, so determinism makes the
// leader's bytes this job's bytes.
func (r *Router) runFollower(j, leader *rjob) {
	defer r.wg.Done()
	select {
	case <-leader.done:
	case <-r.baseCtx.Done():
		r.finish(j, serve.JobCanceled, nil, "router shutting down")
		return
	}
	r.mu.Lock()
	state, result, errMsg := leader.state, leader.result, leader.errMsg
	if !j.state.Terminal() {
		j.replica, j.remote = leader.replica, leader.remote
	}
	r.mu.Unlock()
	r.finish(j, state, result, errMsg)
}

// Recovery reports what the journal replay reconstructed (zero without
// a journal).
func (r *Router) Recovery() RecoveryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recStats
}

// onReplicaChange turns prober transitions into flight events and logs.
func (r *Router) onReplicaChange(replica string, from, to ReplicaState, reason string) {
	now := r.now().UnixNano()
	kind := obs.KindReplicaUp
	if to == StateDown {
		kind = obs.KindReplicaDown
	}
	r.tracer.Event(obs.Span{
		Kind: kind, Key: replica, Start: now, End: now,
		Note: from.String() + "->" + to.String() + ": " + reason,
	})
	if to == StateDown {
		r.log.Warn("replica down", "replica", replica, "reason", reason)
	} else {
		r.log.Info("replica state", "replica", replica, "from", from.String(), "to", to.String())
	}
}

// Submit routes one job. Rejections are *serve.RejectError with the
// same status mapping as a single replica: 400 invalid, 429 shed, 503
// draining or no replicas available.
func (r *Router) Submit(req serve.JobRequest) (JobStatus, error) {
	return r.SubmitTraced(req, 0)
}

// SubmitTraced is Submit with an externally propagated trace ID (0
// begins a fresh trace).
func (r *Router) SubmitTraced(req serve.JobRequest, extTrace uint64) (JobStatus, error) {
	creq := Canonicalize(req)
	trace, sampled := r.tracer.Adopt(extTrace)
	now := r.now()
	if err := creq.Validate(r.cfg.MaxN, r.cfg.MaxGPUs); err != nil {
		r.mu.Lock()
		r.ctrRejInvalid++
		r.mu.Unlock()
		return JobStatus{}, &serve.RejectError{Status: 400, Reason: err.Error()}
	}
	key := CanonicalKey(creq)

	r.mu.Lock()
	if r.draining {
		r.ctrRejDraining++
		r.mu.Unlock()
		return JobStatus{}, &serve.RejectError{Status: 503, Reason: "router draining; not accepting jobs"}
	}
	if r.inflight >= r.cfg.MaxInFlight {
		r.ctrRejShed++
		r.mu.Unlock()
		r.tracer.Event(obs.Span{
			Trace: trace, Key: key, Kind: obs.KindShed,
			Start: now.UnixNano(), End: now.UnixNano(),
			Note: fmt.Sprintf("router in-flight limit %d reached", r.cfg.MaxInFlight),
		})
		return JobStatus{}, &serve.RejectError{
			Status: 429, RetryAfter: time.Second,
			Reason: fmt.Sprintf("router saturated: %d jobs in flight", r.cfg.MaxInFlight),
		}
	}

	// Content-addressed cache: a hit materializes a terminal job with
	// the replica bytes a fresh run would have produced.
	if r.cache != nil {
		if body, ok := r.cache.Get(key); ok {
			j := r.newJobLocked(creq, key, trace, sampled, now)
			j.state = serve.JobDone
			j.cacheHit = true
			j.result = body
			j.finished = now
			close(j.done)
			r.ctrDone++
			r.ctrCacheServed++
			st := j.status()
			r.mu.Unlock()
			// Journal the hit as accept+complete so the job ID stays
			// unique across restarts and the result survives in the
			// journal-backed cache.
			r.journalAccept(j)
			r.journalComplete(j)
			r.tracer.Event(obs.Span{
				Trace: trace, Job: j.id, Key: key, Kind: obs.KindCacheHit,
				Start: now.UnixNano(), End: now.UnixNano(),
				Note: fmt.Sprintf("%d result bytes", len(body)),
			})
			r.log.Debug("cache hit", obs.TraceAttr(trace), "job", j.id, "key", key)
			return st, nil
		}
	}

	// The cache check runs first on purpose: a fleet with every replica
	// down can still answer repeated specs from the cache. Only fresh
	// work needs a live replica.
	if r.health.AllDown() {
		r.ctrRejNoReplicas++
		r.mu.Unlock()
		return JobStatus{}, &serve.RejectError{
			Status: 503, RetryAfter: time.Second,
			Reason: "no replicas available: every replica is down",
		}
	}

	j := r.newJobLocked(creq, key, trace, sampled, now)
	j.state = serve.JobQueued
	r.inflight++
	r.ctrSubmitted++
	st := j.status()
	r.wg.Add(1)
	r.mu.Unlock()

	// Write-ahead: the accept record is durable before the client sees
	// the acknowledgment. If the journal can't make that promise, refuse
	// the job rather than hold it in memory only.
	if err := r.journalAccept(j); err != nil {
		r.finish(j, serve.JobFailed, nil, "journal write failed: "+err.Error())
		r.wg.Done()
		return JobStatus{}, &serve.RejectError{
			Status: 503, RetryAfter: time.Second,
			Reason: "journal write failed: " + err.Error(),
		}
	}

	go r.drive(j)
	r.log.Debug("job routed", obs.TraceAttr(trace), "job", j.id, "key", key)
	return st, nil
}

// journalAccept appends the job's write-ahead accept record.
func (r *Router) journalAccept(j *rjob) error {
	if r.journal == nil {
		return nil
	}
	return r.noteJournalErr("accept", j, r.journal.Accept(j.id, j.key, j.trace, j.req, j.submitted))
}

// journalComplete appends the job's terminal record. Failure here is
// logged, not fatal: an unrecorded complete only costs a re-execution
// on recovery, which determinism makes safe.
func (r *Router) journalComplete(j *rjob) {
	if r.journal == nil {
		return
	}
	r.mu.Lock()
	state, result, errMsg, finished := j.state, j.result, j.errMsg, j.finished
	r.mu.Unlock()
	r.noteJournalErr("complete", j, r.journal.Complete(j.id, state, result, errMsg, finished))
}

// noteJournalErr counts and logs a failed journal append; it returns err.
func (r *Router) noteJournalErr(op string, j *rjob, err error) error {
	if err != nil {
		r.mu.Lock()
		r.ctrJournalErrs++
		r.mu.Unlock()
		r.log.Error("journal "+op+" failed", "job", j.id, "err", err)
	}
	return err
}

// newJobLocked allocates and registers a job record. Caller holds r.mu.
func (r *Router) newJobLocked(req serve.JobRequest, key string, trace uint64, sampled bool, now time.Time) *rjob {
	r.seq++
	j := &rjob{
		id:        fmt.Sprintf("rjob-%06d", r.seq),
		req:       req,
		key:       key,
		trace:     trace,
		sampled:   sampled,
		submitted: now,
		done:      make(chan struct{}),
	}
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	return j
}

// Job returns the snapshot of one job.
func (r *Router) Job(id string) (JobStatus, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return JobStatus{}, serve.ErrUnknownJob
	}
	return j.status(), nil
}

// Wait blocks until the job is terminal or ctx is done, returning the
// latest snapshot either way.
func (r *Router) Wait(ctx context.Context, id string) (JobStatus, error) {
	r.mu.Lock()
	j, ok := r.jobs[id]
	if !ok {
		r.mu.Unlock()
		return JobStatus{}, serve.ErrUnknownJob
	}
	done := j.done
	r.mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
		st, _ := r.Job(id)
		return st, ctx.Err()
	}
	return r.Job(id)
}

// List returns every job in submission order.
func (r *Router) List() []JobStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobStatus, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.jobs[id].status())
	}
	return out
}

// Cancel requests cancellation of a job. A queued or running job is
// canceled asynchronously (its driver also cancels the replica-side
// job); a terminal job is returned unchanged.
func (r *Router) Cancel(id string) (JobStatus, error) {
	r.mu.Lock()
	j, ok := r.jobs[id]
	if !ok {
		r.mu.Unlock()
		return JobStatus{}, serve.ErrUnknownJob
	}
	var cancel context.CancelFunc
	finishNow := false
	if !j.state.Terminal() {
		j.cancelRequested = true
		cancel = j.cancel
		// Driver not started yet: finish directly (through finish, not
		// finishLocked, so the journal records the terminal transition).
		finishNow = cancel == nil
	}
	r.mu.Unlock()
	if finishNow {
		r.finish(j, serve.JobCanceled, nil, "canceled by client")
	} else if cancel != nil {
		cancel()
	}
	return r.Job(id)
}

// ReadyStatus is the router's /readyz body.
type ReadyStatus struct {
	serve.Readiness
	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight"`
	ReplicasUp  int `json:"replicas_up"`
	Replicas    int `json:"replicas"`
	// BreakersOpen lists replicas whose dispatch breaker is open.
	BreakersOpen []string `json:"breakers_open,omitempty"`
}

// Ready snapshots the router's readiness.
func (r *Router) Ready() ReadyStatus {
	r.mu.Lock()
	st := ReadyStatus{
		Readiness:   serve.NewReadiness(r.draining),
		InFlight:    r.inflight,
		MaxInFlight: r.cfg.MaxInFlight,
	}
	r.mu.Unlock()
	// Live membership, not the startup slice: join/leave/evict change
	// the set at runtime.
	st.ReplicasUp = r.health.UpCount()
	st.Replicas = r.health.Count()
	st.BreakersOpen = r.breaker.OpenKeys()
	sort.Strings(st.BreakersOpen)
	return st
}

// Replicas returns the health view of every replica.
func (r *Router) Replicas() []ReplicaView { return r.health.Snapshot() }

// CacheStats snapshots the result cache (zero value when disabled).
func (r *Router) CacheStats() CacheStats {
	if r.cache == nil {
		return CacheStats{}
	}
	return r.cache.Stats()
}

// Drain stops accepting jobs, waits up to timeout for in-flight jobs to
// finish, then cancels whatever remains and stops the prober.
func (r *Router) Drain(timeout time.Duration) error {
	r.mu.Lock()
	already := r.draining
	r.draining = true
	r.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-time.After(timeout):
		err = fmt.Errorf("drain timeout after %v; canceling in-flight jobs", timeout)
		r.baseCancel()
		<-done
	}
	r.shutdown()
	return err
}

// Close releases the router immediately: cancels every driver and stops
// the prober. Jobs still in flight finish canceled.
func (r *Router) Close() {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
	r.baseCancel()
	r.wg.Wait()
	r.shutdown()
}

func (r *Router) shutdown() {
	r.stopOnce.Do(func() {
		r.baseCancel()
		r.janitorWg.Wait()
		r.health.Stop()
	})
}

// Members returns the current ring membership, sorted.
func (r *Router) Members() []string {
	r.mu.Lock()
	members := r.ring.Replicas()
	out := make([]string, len(members))
	copy(out, members)
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

// finishLocked moves a job to a terminal state. Caller holds r.mu.
func (r *Router) finishLocked(j *rjob, state serve.JobState, result json.RawMessage, errMsg string) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = r.now()
	switch state {
	case serve.JobDone:
		r.ctrDone++
	case serve.JobFailed:
		r.ctrFailed++
	case serve.JobCanceled:
		r.ctrCanceled++
	}
	r.inflight--
	close(j.done)
}

// finish is finishLocked plus the observability tail: sojourn
// histogram, cache fill, lifecycle span, log line.
func (r *Router) finish(j *rjob, state serve.JobState, result json.RawMessage, errMsg string) {
	r.mu.Lock()
	if j.state.Terminal() {
		r.mu.Unlock()
		return
	}
	r.finishLocked(j, state, result, errMsg)
	st := j.status()
	r.mu.Unlock()

	if !j.cacheHit {
		r.sojourn.Observe(j.finished.Sub(j.submitted))
	}
	if state == serve.JobDone && r.cache != nil && len(result) > 0 {
		r.cache.Put(j.key, result)
	}
	r.journalComplete(j)
	if j.sampled {
		r.tracer.Span(obs.Span{
			Trace: j.trace, Job: j.id, Key: j.key, Kind: obs.KindRoute,
			Start: j.submitted.UnixNano(), End: j.finished.UnixNano(),
			Note: fmt.Sprintf("%s replica=%s redispatches=%d hedged=%v", state, st.Replica, st.Redispatches, st.Hedged),
		})
	}
	switch state {
	case serve.JobDone:
		r.log.Debug("job done", obs.TraceAttr(j.trace), "job", j.id, "replica", st.Replica)
	case serve.JobFailed:
		r.log.Warn("job failed", obs.TraceAttr(j.trace), "job", j.id, "err", errMsg)
	case serve.JobCanceled:
		r.log.Info("job canceled", obs.TraceAttr(j.trace), "job", j.id, "reason", errMsg)
	}
}

func (r *Router) now() time.Time { return r.cfg.now() }

// backoffDelay returns the jittered delay for the attempt-th retry.
func (r *Router) backoffDelay(attempt int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bo.Delay(attempt, r.rng)
}
