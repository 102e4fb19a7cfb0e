// Package serve is the resilient scheduling service behind cmd/memschedd:
// a bounded worker pool running simulation jobs with per-job deadlines,
// panic confinement, retry under capped exponential backoff with jitter
// for transient failures, a per-(workload, strategy) circuit breaker,
// load shedding once the queue fills, and a graceful drain that finishes
// in-flight jobs under a deadline while rejecting everything else.
//
// The package is the serving-stack shape of the fault-tolerance story
// the simulator itself gained with fault injection: the simulator
// recovers from faults *inside* a run, serve recovers from faults
// *around* runs.
package serve

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"memsched/internal/critpath"
	"memsched/internal/metrics"
	"memsched/internal/obs"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

// Runner executes one job attempt. The default is the real simulator
// (runRequest); tests inject deterministic or failing runners to
// exercise the retry, breaker and drain machinery.
type Runner func(ctx context.Context, req JobRequest) (*sim.Result, error)

// Config tunes a Server. The zero value of every field selects the
// documented default.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueCap bounds the number of queued (accepted, not yet running)
	// jobs; submissions beyond it are shed with 429 (default 64).
	QueueCap int
	// JobTimeout is the default per-job deadline (default 2m);
	// MaxJobTimeout caps per-request overrides (default 10m).
	JobTimeout    time.Duration
	MaxJobTimeout time.Duration
	// MaxRetries bounds the retry attempts after the first try of a job
	// whose failure is transient (default 3).
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the retry delays: attempt i waits
	// uniformly in [d/2, d] with d = min(BaseBackoff<<i, MaxBackoff)
	// (defaults 100ms and 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold is the number of consecutive permanent failures
	// of one (workload, strategy) key that opens its circuit breaker
	// (default 5; negative disables the breaker). BreakerCooldown is how
	// long the breaker stays open before admitting a probe (default 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RetryAfterHint is the Retry-After value returned with 429 queue
	// sheds (default 1s).
	RetryAfterHint time.Duration
	// MaxN and MaxGPUs are the admission bounds on workload size and GPU
	// count (defaults 300 and 8).
	MaxN    int
	MaxGPUs int
	// Gauges receives the live simulation counters (nil allocates a
	// private instance; pass one to publish it on expvar).
	Gauges *metrics.Gauges
	// Runner overrides the job executor (nil runs the real simulator).
	Runner Runner

	// Logger receives structured job-lifecycle logs with trace-ID
	// correlation (nil discards; per-job accept/finish lines log at
	// Debug, retries and sheds at Info/Warn).
	Logger *slog.Logger
	// TraceSpanCap and TraceEventCap bound the flight-recorder rings:
	// the last TraceSpanCap lifecycle spans and TraceEventCap
	// shed/breaker/retry events are retained (defaults 4096 and 1024;
	// negative disables that ring).
	TraceSpanCap  int
	TraceEventCap int
	// TraceSample records the lifecycle spans of every TraceSample-th
	// submission (default 1: every job; negative disables lifecycle
	// tracing — service events and histograms are always recorded).
	TraceSample int

	// now is the clock seam: tests inject a fake clock to make queue
	// waits, runtimes and breaker cooldowns deterministic (nil uses
	// time.Now).
	now func() time.Time
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 10 * time.Minute
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = time.Second
	}
	if c.MaxN <= 0 {
		c.MaxN = 300
	}
	if c.MaxGPUs <= 0 {
		c.MaxGPUs = 8
	}
	if c.Gauges == nil {
		c.Gauges = new(metrics.Gauges)
	}
	if c.Runner == nil {
		c.Runner = runRequest
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	switch {
	case c.TraceSpanCap < 0:
		c.TraceSpanCap = 0
	case c.TraceSpanCap == 0:
		c.TraceSpanCap = 4096
	}
	switch {
	case c.TraceEventCap < 0:
		c.TraceEventCap = 0
	case c.TraceEventCap == 0:
		c.TraceEventCap = 1024
	}
	switch {
	case c.TraceSample < 0:
		c.TraceSample = 0
	case c.TraceSample == 0:
		c.TraceSample = 1
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// RejectError is a submission the server refused: admission-control
// failures, shed load, an open breaker, or a drain in progress. Status
// is the HTTP status the rejection maps to; RetryAfter, when positive,
// tells the client when trying again is worthwhile.
type RejectError struct {
	Status     int
	RetryAfter time.Duration
	Reason     string
}

// Error returns the rejection reason.
func (e *RejectError) Error() string { return e.Reason }

// ErrDraining is wrapped by drain rejections so callers can test for
// them with errors.Is.
var ErrDraining = errors.New("server draining")

// ErrUnknownJob is returned by Job and Cancel for ids never submitted.
var ErrUnknownJob = errors.New("unknown job id")

// Server is the scheduling service: a bounded queue feeding a worker
// pool, plus the job table the HTTP API reads. Create with New, stop
// with Drain.
type Server struct {
	cfg     Config
	breaker *Breaker
	bo      Backoff

	// Observability. The tracer and histograms are self-synchronized
	// (rings and atomics) and are never touched under s.mu by exporters:
	// /metrics and /debug/* snapshot first, format after.
	tracer *obs.Tracer
	log    *slog.Logger
	// Latency histograms: queue wait (admit -> first attempt), per-
	// attempt runtime, and end-to-end sojourn (admit -> terminal, done
	// and failed jobs only) — each overall and per (workload|strategy).
	queueWait, attemptDur, sojourn          obs.Histogram
	queueWaitKey, attemptDurKey, sojournKey obs.HistVec

	baseCtx context.Context
	cancel  context.CancelFunc
	drainCh chan struct{}

	mu       sync.Mutex
	queue    chan *job
	jobs     map[string]*job
	order    []string // submission order, for List
	draining bool
	seq      int64
	rng      *rand.Rand
	started  time.Time

	wg sync.WaitGroup

	// Lifecycle counters. expvar.Int is used as a plain atomic here —
	// like metrics.Gauges, nothing registers on the global expvar
	// registry unless the embedder explicitly publishes.
	ctrSubmitted        expvar.Int
	ctrDone             expvar.Int
	ctrFailed           expvar.Int
	ctrRetried          expvar.Int
	ctrCanceled         expvar.Int
	ctrPanics           expvar.Int
	ctrRejectedInvalid  expvar.Int
	ctrRejectedFull     expvar.Int
	ctrRejectedBreaker  expvar.Int
	ctrRejectedDraining expvar.Int
}

// New creates a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.now),
		bo:      Backoff{Base: cfg.BaseBackoff, Max: cfg.MaxBackoff},
		tracer:  obs.NewTracer(cfg.TraceSpanCap, cfg.TraceEventCap, cfg.TraceSample),
		log:     cfg.Logger,
		baseCtx: ctx,
		cancel:  cancel,
		drainCh: make(chan struct{}),
		queue:   make(chan *job, cfg.QueueCap),
		jobs:    make(map[string]*job),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		started: cfg.now(),
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

// Submit validates and enqueues a job. Rejections are *RejectError:
// 400 for admission-control failures, 429 (+Retry-After) when the queue
// is full, 503 when the job's circuit breaker is open or the server is
// draining.
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	return s.SubmitTraced(req, 0)
}

// SubmitTraced is Submit continuing an externally-propagated trace ID
// (the fleet router forwards its own, so a job's spans and log lines
// correlate across router and replica). A zero extTrace allocates a
// fresh ID, exactly like Submit.
func (s *Server) SubmitTraced(req JobRequest, extTrace uint64) (JobStatus, error) {
	req.Normalize()
	// Every submission gets a trace ID — including rejected ones, whose
	// rejection lands in the flight recorder's event ring. The key is
	// computed once and shared by the breaker, the spans and the job.
	trace, sampled := s.tracer.Adopt(extTrace)
	key := req.Key()
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.ctrRejectedDraining.Add(1)
		s.reject(obs.KindDrainReject, trace, key, now, "server draining")
		return JobStatus{}, &RejectError{Status: 503, Reason: "server draining; not accepting jobs"}
	}
	if err := req.Validate(s.cfg.MaxN, s.cfg.MaxGPUs); err != nil {
		s.ctrRejectedInvalid.Add(1)
		s.reject(obs.KindInvalid, trace, key, now, err.Error())
		return JobStatus{}, &RejectError{Status: 400, Reason: err.Error()}
	}
	// Shed load before consulting the breaker, so a shed submission can
	// never consume a half-open probe slot. Every send happens under
	// s.mu and workers only drain, so a below-capacity length here
	// guarantees the buffered send below cannot block.
	if len(s.queue) >= s.cfg.QueueCap {
		s.ctrRejectedFull.Add(1)
		s.reject(obs.KindShed, trace, key, now, "queue full")
		return JobStatus{}, &RejectError{
			Status:     429,
			RetryAfter: s.cfg.RetryAfterHint,
			Reason:     fmt.Sprintf("queue full (%d jobs); retry later", s.cfg.QueueCap),
		}
	}
	if ok, retryAfter := s.breaker.Allow(key); !ok {
		s.ctrRejectedBreaker.Add(1)
		s.reject(obs.KindBreakerReject, trace, key, now, "breaker open")
		return JobStatus{}, &RejectError{
			Status:     503,
			RetryAfter: retryAfter,
			Reason:     fmt.Sprintf("circuit breaker open for %q (repeated failures); retry later", key),
		}
	}
	s.seq++
	j := &job{
		id:        jobID(s.seq),
		req:       req,
		key:       key,
		trace:     trace,
		sampled:   sampled,
		state:     JobQueued,
		submitted: now,
		done:      make(chan struct{}),
	}
	s.queue <- j
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.ctrSubmitted.Add(1)
	if sampled {
		s.tracer.Span(obs.Span{
			Trace: trace, Job: j.id, Key: key, Kind: obs.KindAdmit,
			Start: now.UnixNano(), End: now.UnixNano(),
		})
	}
	if s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.LogAttrs(context.Background(), slog.LevelDebug, "job accepted",
			obs.TraceAttr(trace), slog.String("job", j.id), slog.String("key", key),
			slog.Int("queue_depth", len(s.queue)))
	}
	return j.status(), nil
}

// jobID formats the n-th job's ID as fmt's "job-%06d" would, without
// fmt: its pooled printer state makes Submit's allocation count vary
// under the race detector, which randomly drops sync.Pool items.
func jobID(n int64) string {
	var buf [32]byte
	b := append(buf[:0], "job-"...)
	for w := int64(100000); w > 1 && n < w; w /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, n, 10))
}

// reject records one refused submission into the flight recorder's
// event ring and the structured log. Caller holds s.mu; the ring has
// its own lock and never calls back into the server.
func (s *Server) reject(kind obs.SpanKind, trace uint64, key string, now time.Time, note string) {
	s.tracer.Event(obs.Span{
		Trace: trace, Key: key, Kind: kind,
		Start: now.UnixNano(), End: now.UnixNano(), Note: note,
	})
	level := slog.LevelWarn
	if kind == obs.KindInvalid || kind == obs.KindDrainReject {
		level = slog.LevelDebug
	}
	if s.log.Enabled(context.Background(), level) {
		s.log.LogAttrs(context.Background(), level, "submission rejected",
			obs.TraceAttr(trace), slog.String("key", key),
			slog.String("kind", kind.String()), slog.String("reason", note))
	}
}

// Job returns the status snapshot of one job.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return j.status(), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done,
// then returns its status.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	return s.Job(id)
}

// List returns every job in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Cancel requests cancellation of a job: a queued job is dropped before
// it starts, a running one has its context canceled (the simulation
// stops at the next engine poll). Terminal jobs are left untouched.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	if j.state.Terminal() {
		return j.status(), nil
	}
	j.cancelRequested = true
	if j.state == JobQueued {
		s.finishLocked(j, JobCanceled, nil, "canceled before start")
	} else if j.cancel != nil {
		j.cancel()
	}
	return j.status(), nil
}

// Draining reports whether a drain has begun (readiness turns false).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ReadyStatus is the /readyz body. It carries enough state for a fleet
// health prober to tell "draining" (alive, finishing in-flight work,
// don't send new jobs) from "dead" (no response at all), and to see
// saturation coming before the queue sheds.
type ReadyStatus struct {
	Readiness
	// QueueDepth and QueueCap describe queue saturation.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// BreakersOpen lists the (workload|strategy) keys currently shed by
	// an open or half-open circuit breaker.
	BreakersOpen []string `json:"breakers_open,omitempty"`
}

// Ready assembles the readiness snapshot served by /readyz.
func (s *Server) Ready() ReadyStatus {
	s.mu.Lock()
	depth := len(s.queue)
	draining := s.draining
	s.mu.Unlock()
	st := ReadyStatus{
		Readiness:    NewReadiness(draining),
		QueueDepth:   depth,
		QueueCap:     s.cfg.QueueCap,
		BreakersOpen: s.breaker.OpenKeys(),
	}
	sort.Strings(st.BreakersOpen)
	return st
}

// Drain gracefully shuts the server down: no new submissions are
// accepted, jobs still queued are rejected with a drain error, retry
// backoffs abort, and in-flight attempts run to completion. It returns
// nil if everything settled within timeout; otherwise it cancels the
// in-flight jobs and returns an error after they acknowledge.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.drainCh) // aborts retry backoffs, flips /readyz
	close(s.queue)   // Submit never sends after draining is set (same mu)
	s.mu.Unlock()

	settled := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		return nil
	case <-time.After(timeout):
		// Deadline: cancel whatever is still running and wait for the
		// workers to acknowledge — they always do, because cancellation
		// is polled by the engine.
		s.cancel()
		<-settled
		return fmt.Errorf("serve: drain deadline (%v) exceeded; in-flight jobs canceled", timeout)
	}
}

// runJob drives one job through its attempts.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state.Terminal() { // canceled while queued
		s.mu.Unlock()
		return
	}
	if s.draining {
		// Still in the queue when the drain began: reject, don't start.
		s.finishLocked(j, JobCanceled, nil, "rejected: server draining before job started")
		s.mu.Unlock()
		return
	}
	timeout := s.cfg.JobTimeout
	if j.req.TimeoutMS > 0 {
		timeout = time.Duration(j.req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxJobTimeout {
			timeout = s.cfg.MaxJobTimeout
		}
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	started := s.now()
	j.state = JobRunning
	j.started = started
	j.cancel = cancel
	s.mu.Unlock()

	// Queue wait: admit to first attempt.
	wait := started.Sub(j.submitted)
	s.queueWait.Observe(wait)
	s.queueWaitKey.Get(j.key).Observe(wait)
	if j.sampled {
		s.tracer.Span(obs.Span{
			Trace: j.trace, Job: j.id, Key: j.key, Kind: obs.KindQueue,
			Start: j.submitted.UnixNano(), End: started.UnixNano(),
		})
	}

	var res *sim.Result
	var err error
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		j.attempt = attempt + 1
		s.mu.Unlock()
		at0 := s.now()
		res, err = s.attempt(ctx, j.req)
		at1 := s.now()
		s.attemptDur.Observe(at1.Sub(at0))
		s.attemptDurKey.Get(j.key).Observe(at1.Sub(at0))
		if j.sampled {
			note := ""
			if err != nil {
				note = err.Error()
			}
			s.tracer.Span(obs.Span{
				Trace: j.trace, Job: j.id, Key: j.key, Kind: obs.KindAttempt,
				Attempt: int32(attempt + 1), Start: at0.UnixNano(), End: at1.UnixNano(), Note: note,
			})
		}
		if err == nil || !IsTransient(err) || attempt >= s.cfg.MaxRetries || ctx.Err() != nil {
			break
		}
		s.ctrRetried.Add(1)
		s.mu.Lock()
		delay := s.bo.Delay(attempt, s.rng)
		s.mu.Unlock()
		s.tracer.Event(obs.Span{
			Trace: j.trace, Job: j.id, Key: j.key, Kind: obs.KindRetry,
			Attempt: int32(attempt + 1), Start: at1.UnixNano(), End: at1.UnixNano(),
			Note: err.Error(),
		})
		if s.log.Enabled(ctx, slog.LevelInfo) {
			s.log.LogAttrs(ctx, slog.LevelInfo, "retrying transient failure",
				obs.TraceAttr(j.trace), slog.String("job", j.id), slog.String("key", j.key),
				slog.Int("attempt", attempt+1), slog.Duration("backoff", delay),
				slog.String("error", err.Error()))
		}
		slept := s.sleepBackoff(ctx, delay)
		if j.sampled {
			bEnd := s.now()
			s.tracer.Span(obs.Span{
				Trace: j.trace, Job: j.id, Key: j.key, Kind: obs.KindBackoff,
				Attempt: int32(attempt + 1), Start: at1.UnixNano(), End: bEnd.UnixNano(),
			})
		}
		if !slept {
			// Drain or cancellation interrupted the backoff; fail with
			// the last attempt's error.
			break
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		jr := &JobResult{Row: metrics.FromResult("serve", res), Faults: res.Faults}
		if j.req.CritPath && len(res.Trace) > 0 {
			// Attribution runs on the worker after the simulation: rebuild
			// the instance (cheap next to the run itself), walk the trace,
			// and keep only the compact summary. A walk failure degrades
			// the job to "no attribution" rather than failing it.
			if inst, ierr := workload.ByName(j.req.Workload, j.req.N, j.req.Keep, j.req.Seed); ierr == nil {
				if p, perr := critpath.Analyze(inst, res); perr == nil {
					jr.CritPath = critpath.Summarize(inst, p)
				} else {
					s.log.LogAttrs(context.Background(), slog.LevelWarn, "critpath analysis failed",
						obs.TraceAttr(j.trace), slog.String("key", j.key), slog.String("error", perr.Error()))
				}
			}
			res.Trace = nil
		}
		s.finishLocked(j, JobDone, jr, "")
		s.breaker.OnSuccess(j.key)
	case j.cancelRequested || errors.Is(err, context.Canceled):
		// Client cancellation (or drain-deadline cancellation): not a
		// failure of the (workload, strategy) key, so the breaker is
		// untouched.
		s.finishLocked(j, JobCanceled, nil, err.Error())
	default:
		s.finishLocked(j, JobFailed, nil, err.Error())
		if s.breaker.OnFailure(j.key) {
			now := s.now().UnixNano()
			s.tracer.Event(obs.Span{
				Trace: j.trace, Job: j.id, Key: j.key, Kind: obs.KindBreakerTrip,
				Start: now, End: now, Note: err.Error(),
			})
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "circuit breaker opened",
				obs.TraceAttr(j.trace), slog.String("key", j.key), slog.String("error", err.Error()))
		}
	}
}

// attempt runs one simulation attempt with panic confinement: a panic
// in a scheduler or workload builder costs this attempt (reported as a
// permanent error), never the worker.
func (s *Server) attempt(ctx context.Context, req JobRequest) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.ctrPanics.Add(1)
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			res = nil
		}
	}()
	g := s.cfg.Gauges
	g.SimsRunning.Add(1)
	defer g.SimsRunning.Add(-1)
	res, err = s.cfg.Runner(ctx, req)
	if err == nil && res != nil {
		g.SimEvents.Add(res.Events)
	}
	return res, err
}

// sleepBackoff waits out a retry delay, aborting early (returning
// false) when the job's context or a drain cuts it short.
func (s *Server) sleepBackoff(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-s.drainCh:
		return false
	}
}

// finishLocked moves a job to a terminal state. Caller holds s.mu.
func (s *Server) finishLocked(j *job, state JobState, result *JobResult, errMsg string) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = s.now()
	close(j.done)
	var kind obs.SpanKind
	switch state {
	case JobDone:
		s.ctrDone.Add(1)
		s.cfg.Gauges.CellsCompleted.Add(1)
		kind = obs.KindDone
	case JobFailed:
		s.ctrFailed.Add(1)
		kind = obs.KindFail
	case JobCanceled:
		s.ctrCanceled.Add(1)
		kind = obs.KindCancel
	}
	// End-to-end sojourn covers jobs that ran to a verdict; canceled
	// jobs would skew the SLO axis with client behavior.
	if state == JobDone || state == JobFailed {
		d := j.finished.Sub(j.submitted)
		s.sojourn.Observe(d)
		s.sojournKey.Get(j.key).Observe(d)
	}
	if j.sampled {
		s.tracer.Span(obs.Span{
			Trace: j.trace, Job: j.id, Key: j.key, Kind: kind,
			Attempt: int32(j.attempt), Start: j.finished.UnixNano(), End: j.finished.UnixNano(),
			Note: errMsg,
		})
	}
	if s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.LogAttrs(context.Background(), slog.LevelDebug, "job finished",
			obs.TraceAttr(j.trace), slog.String("job", j.id), slog.String("key", j.key),
			slog.String("state", string(state)), slog.Int("attempts", j.attempt),
			slog.Duration("sojourn", j.finished.Sub(j.submitted)), slog.String("error", errMsg))
	}
}

// now returns the server clock (time.Now unless a test injected a fake).
func (s *Server) now() time.Time { return s.cfg.now() }

// Metrics is the /metrics snapshot: live gauges, lifecycle counters and
// the load-shedding/breaker counters.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Workers       int     `json:"workers"`
	QueueCap      int     `json:"queue_cap"`
	QueueDepth    int     `json:"queue_depth"`

	SimsRunning    int64 `json:"sims_running"`
	SimEvents      int64 `json:"sim_events"`
	CellsCompleted int64 `json:"cells_completed"`

	JobsSubmitted  int64 `json:"jobs_submitted"`
	JobsDone       int64 `json:"jobs_done"`
	JobsFailed     int64 `json:"jobs_failed"`
	JobsRetried    int64 `json:"jobs_retried"`
	JobsCanceled   int64 `json:"jobs_canceled"`
	PanicsConfined int64 `json:"panics_confined"`

	RejectedInvalid  int64 `json:"rejected_invalid"`
	RejectedFull     int64 `json:"rejected_queue_full"`
	RejectedBreaker  int64 `json:"rejected_breaker_open"`
	RejectedDraining int64 `json:"rejected_draining"`

	BreakerTrips int64    `json:"breaker_trips"`
	BreakersOpen []string `json:"breakers_open,omitempty"`
}

// Snapshot assembles the current metrics.
func (s *Server) Snapshot() Metrics {
	s.mu.Lock()
	depth := len(s.queue)
	draining := s.draining
	s.mu.Unlock()
	return Metrics{
		UptimeSeconds:    s.now().Sub(s.started).Seconds(),
		Draining:         draining,
		Workers:          s.cfg.Workers,
		QueueCap:         s.cfg.QueueCap,
		QueueDepth:       depth,
		SimsRunning:      s.cfg.Gauges.SimsRunning.Value(),
		SimEvents:        s.cfg.Gauges.SimEvents.Value(),
		CellsCompleted:   s.cfg.Gauges.CellsCompleted.Value(),
		JobsSubmitted:    s.ctrSubmitted.Value(),
		JobsDone:         s.ctrDone.Value(),
		JobsFailed:       s.ctrFailed.Value(),
		JobsRetried:      s.ctrRetried.Value(),
		JobsCanceled:     s.ctrCanceled.Value(),
		PanicsConfined:   s.ctrPanics.Value(),
		RejectedInvalid:  s.ctrRejectedInvalid.Value(),
		RejectedFull:     s.ctrRejectedFull.Value(),
		RejectedBreaker:  s.ctrRejectedBreaker.Value(),
		RejectedDraining: s.ctrRejectedDraining.Value(),
		BreakerTrips:     s.breaker.TripCount(),
		BreakersOpen:     s.breaker.OpenKeys(),
	}
}
