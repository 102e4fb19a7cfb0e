package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"memsched/internal/obs"
	"memsched/internal/serve"
)

// maxRespBytes bounds every replica response the router decodes.
const maxRespBytes = 4 << 20

// replicaStatus is the slice of serve.JobStatus the router reads back.
// Result stays raw: the router never decodes result bytes, it relays
// and caches them verbatim — that is what makes "byte-identical to a
// single-node run" a structural property instead of a best effort.
type replicaStatus struct {
	ID     string          `json:"id"`
	State  serve.JobState  `json:"state"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// dispatchResult is one dispatch attempt's outcome, exactly one per
// launched dispatch goroutine.
type dispatchResult struct {
	replica  string
	hedge    bool
	accepted bool   // the replica admitted the job
	remote   string // replica-side job id, when accepted
	st       *replicaStatus
	err      error
}

// permanentError marks a dispatch outcome that must not fail over:
// the replica deterministically rejected or failed the job, so every
// other replica would do the same.
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// errRemoteJobLost marks a poll that found the replica alive but the
// job gone (replica restarted between accept and poll).
var errRemoteJobLost = errors.New("replica no longer knows the job")

// drive owns one job start to finish: dispatch to the ring-preferred
// replica, fail over on loss, hedge on straggle, finish exactly once.
func (r *Router) drive(j *rjob) {
	defer r.wg.Done()
	ctx, cancel := context.WithTimeout(r.baseCtx, r.cfg.JobTimeout)
	defer cancel()

	r.mu.Lock()
	if j.state.Terminal() { // canceled before the driver started
		r.mu.Unlock()
		return
	}
	j.cancel = cancel
	prefs := r.ring.Prefs(j.key, nil)
	prefCount := len(prefs)
	r.mu.Unlock()

	// active tracks in-flight dispatches (replica -> remote job id,
	// "" until accepted). It is shared with the dispatch goroutines'
	// accept callbacks, hence its own mutex.
	var amu sync.Mutex
	active := make(map[string]string, 2)
	results := make(chan dispatchResult, r.cfg.MaxAttempts+2)

	attempts := 0
	idleRounds := 0
	excluded := make(map[string]bool, len(prefs))

	activeCount := func() int {
		amu.Lock()
		defer amu.Unlock()
		return len(active)
	}
	launch := func(hedge bool) bool {
		amu.Lock()
		act := make(map[string]bool, len(active))
		for rep := range active {
			act[rep] = true
		}
		amu.Unlock()
		// Recompute the preference order from the live ring so a
		// membership change (join, leave, evict) between attempts is
		// visible: a retry can land on a just-joined replica and never
		// lands on a departed one.
		r.mu.Lock()
		prefs = r.ring.Prefs(j.key, prefs[:0])
		r.mu.Unlock()
		replica := r.eligibleReplica(prefs, act, excluded)
		if replica == "" && len(excluded) > 0 {
			// Every replica has been tried once this job; wrap around so
			// a transient shed does not strand the job while attempts
			// remain.
			for rep := range excluded {
				delete(excluded, rep)
			}
			replica = r.eligibleReplica(prefs, act, excluded)
		}
		if replica == "" {
			return false
		}
		attempts++
		idleRounds = 0
		amu.Lock()
		active[replica] = ""
		amu.Unlock()
		r.mu.Lock()
		r.ctr.Dispatches++
		r.dispActive[replica]++
		r.mu.Unlock()
		onAccept := func(remote string) {
			amu.Lock()
			active[replica] = remote
			amu.Unlock()
			r.mu.Lock()
			if !j.state.Terminal() {
				j.state = serve.JobRunning
				if !hedge || j.replica == "" {
					j.replica, j.remote = replica, remote
				}
			}
			r.mu.Unlock()
		}
		go r.runDispatch(ctx, j, replica, hedge, onAccept, results)
		return true
	}
	// cancelLosers cancels every still-active dispatch after the job
	// finished: fire-and-forget DELETEs so the winner's latency never
	// waits on a loser.
	cancelLosers := func() {
		amu.Lock()
		losers := make(map[string]string, len(active))
		for rep, id := range active {
			losers[rep] = id
		}
		amu.Unlock()
		for rep, id := range losers {
			if id != "" {
				go r.cancelRemote(rep, id)
			}
		}
	}

	var hedgeCh <-chan time.Time
	if !r.cfg.DisableHedge && prefCount > 1 {
		ht := time.NewTimer(r.hedgeDelay())
		defer ht.Stop()
		hedgeCh = ht.C
	}
	var retryCh <-chan time.Time
	if !launch(false) {
		idleRounds++
		retryCh = time.After(r.backoffDelay(attempts))
	}

	for {
		select {
		case res := <-results:
			amu.Lock()
			delete(active, res.replica)
			amu.Unlock()
			excluded[res.replica] = true

			switch {
			case res.err == nil && res.st.State == serve.JobDone:
				if res.hedge {
					r.noteHedgeWin(j, res.replica)
				}
				r.setWinner(j, res)
				r.finish(j, serve.JobDone, res.st.Result, "")
				cancelLosers()
				return
			case res.err == nil && res.st.State == serve.JobFailed:
				// Deterministic failure: every replica would fail the
				// same way, so failing over would only repeat it.
				r.setWinner(j, res)
				r.finish(j, serve.JobFailed, nil, res.st.Error)
				cancelLosers()
				return
			case res.err == nil && res.st.State == serve.JobCanceled && r.cancelWasRequested(j):
				r.finish(j, serve.JobCanceled, nil, "canceled by client")
				cancelLosers()
				return
			default:
				// Everything else is a lost or refused dispatch: transport
				// error, shed, replica restart, or a replica-side cancel
				// the router never asked for (a drain deadline, say).
				var perm *permanentError
				if errors.As(res.err, &perm) {
					r.finish(j, serve.JobFailed, nil, perm.msg)
					cancelLosers()
					return
				}
				if ctx.Err() != nil {
					// The driver context died (client cancel, timeout,
					// shutdown) — that is not a replica failure.
					r.finishAborted(j, ctx)
					cancelLosers()
					return
				}
				r.noteDispatchError(j, res)
				if activeCount() > 0 {
					// A sibling dispatch (the hedge, or the primary) is
					// still in flight; let it run.
					continue
				}
				if attempts >= r.cfg.MaxAttempts {
					r.finish(j, serve.JobFailed, nil,
						fmt.Sprintf("dispatch attempts exhausted after %d tries: %s", attempts, dispatchErrString(res)))
					return
				}
				if !launch(false) {
					idleRounds++
					retryCh = time.After(r.backoffDelay(attempts))
				}
			}

		case <-retryCh:
			retryCh = nil
			if launch(false) {
				continue
			}
			idleRounds++
			if idleRounds > r.cfg.MaxAttempts {
				r.finish(j, serve.JobFailed, nil, "no replica available: all replicas down, draining or breaker-open")
				return
			}
			retryCh = time.After(r.backoffDelay(attempts + idleRounds))

		case <-hedgeCh:
			hedgeCh = nil
			if activeCount() != 1 || attempts >= r.cfg.MaxAttempts {
				continue
			}
			if launch(true) {
				r.noteHedge(j)
			}

		case <-ctx.Done():
			r.finishAborted(j, ctx)
			cancelLosers()
			return
		}
	}
}

// eligibleReplica walks the preference order and returns the first
// replica that is up, not already carrying this job, not excluded, and
// whose breaker admits a request. Health is checked before the breaker
// so half-open probe slots are never burned on replicas that were
// going to be skipped anyway.
func (r *Router) eligibleReplica(prefs []string, active, excluded map[string]bool) string {
	for _, rep := range prefs {
		if active[rep] || excluded[rep] {
			continue
		}
		if r.health.State(rep) != StateUp {
			continue
		}
		if ok, _ := r.breaker.Allow(rep); !ok {
			continue
		}
		return rep
	}
	return ""
}

// runDispatch performs one dispatch: submit, then long-poll to a
// terminal state. Exactly one dispatchResult is always sent.
func (r *Router) runDispatch(ctx context.Context, j *rjob, replica string, hedge bool,
	onAccept func(remote string), results chan<- dispatchResult) {
	res := dispatchResult{replica: replica, hedge: hedge}
	defer func() {
		// dispActive feeds drain-aware membership leave: a leaving
		// replica is removed from the health view once this hits zero.
		r.mu.Lock()
		if r.dispActive[replica]--; r.dispActive[replica] <= 0 {
			delete(r.dispActive, replica)
		}
		r.mu.Unlock()
		results <- res
	}()
	start := r.now()

	body, err := json.Marshal(j.req)
	if err != nil {
		res.err = &permanentError{msg: "marshal request: " + err.Error()}
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, replica+"/jobs", bytes.NewReader(body))
	if err != nil {
		res.err = &permanentError{msg: "build request: " + err.Error()}
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TraceHeader, strconv.FormatUint(j.trace, 10))
	resp, err := r.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			// Only a live-context transport error is evidence against the
			// replica; our own cancellation is not.
			r.health.ReportFailure(replica, err.Error())
			r.noteBreakerFailure(replica)
		}
		res.err = fmt.Errorf("submit to %s: %w", replica, err)
		return
	}
	raw, readErr := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
	resp.Body.Close()
	var st replicaStatus
	decErr := json.Unmarshal(raw, &st)
	switch {
	case resp.StatusCode == http.StatusAccepted && readErr == nil && decErr == nil && st.ID != "":
		// Admitted; fall through to the poll loop.
	case resp.StatusCode == http.StatusBadRequest:
		// Deterministic rejection: no other replica would accept it.
		res.err = &permanentError{msg: "replica rejected job: " + remoteErrString(resp, raw)}
		return
	default:
		// Shed (429), draining (503) or anything unexpected: retriable
		// elsewhere, and a breaker strike here.
		r.noteBreakerFailure(replica)
		res.err = fmt.Errorf("submit to %s: %s", replica, remoteErrString(resp, raw))
		return
	}
	res.accepted, res.remote = true, st.ID
	onAccept(st.ID)

	for {
		if err := ctx.Err(); err != nil {
			res.err = err
			return
		}
		pst, err := r.pollOnce(ctx, replica, st.ID)
		if err != nil {
			if !errors.Is(err, errRemoteJobLost) && ctx.Err() == nil {
				r.health.ReportFailure(replica, err.Error())
				r.noteBreakerFailure(replica)
			}
			res.err = fmt.Errorf("poll %s: %w", replica, err)
			return
		}
		if pst == nil {
			// Benign poll timeout; re-check liveness before the next
			// round so a dead replica doesn't eat polls until the prober
			// notices.
			if r.health.State(replica) == StateDown {
				res.err = fmt.Errorf("replica %s marked down mid-job", replica)
				return
			}
			continue
		}
		if pst.State.Terminal() {
			r.breaker.OnSuccess(replica)
			r.dispatchDur.Observe(r.now().Sub(start))
			res.st = pst
			return
		}
	}
}

// pollOnce long-polls one replica job once, bounded by PollTimeout.
// Returns (nil, nil) on a benign client-side poll timeout.
func (r *Router) pollOnce(ctx context.Context, replica, remote string) (*replicaStatus, error) {
	pctx, cancel := context.WithTimeout(ctx, r.cfg.PollTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, replica+"/jobs/"+remote+"?wait=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		if ctx.Err() == nil && pctx.Err() != nil {
			return nil, nil
		}
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		var st replicaStatus
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxRespBytes)).Decode(&st); err != nil {
			return nil, fmt.Errorf("decode status: %w", err)
		}
		return &st, nil
	case http.StatusNotFound:
		return nil, errRemoteJobLost
	default:
		return nil, fmt.Errorf("status %s", resp.Status)
	}
}

// cancelRemote best-effort cancels a loser dispatch on its replica.
func (r *Router) cancelRemote(replica, remote string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, replica+"/jobs/"+remote, nil)
	if err != nil {
		return
	}
	if resp, err := r.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// hedgeDelay derives the hedge timer from the live sojourn quantile,
// floored by HedgeMinDelay while the histogram is cold and capped at
// half the job timeout so a hedge always has time to win.
func (r *Router) hedgeDelay() time.Duration {
	d := r.cfg.HedgeMinDelay
	snap := r.sojourn.Snapshot()
	if snap.Count >= 16 {
		if q := snap.Quantile(r.cfg.HedgeQuantile); q > 0 && !math.IsInf(q, 1) {
			if qd := time.Duration(q * float64(time.Second)); qd > d {
				d = qd
			}
		}
	}
	if lim := r.cfg.JobTimeout / 2; d > lim {
		d = lim
	}
	return d
}

// setWinner records which dispatch produced the terminal outcome.
func (r *Router) setWinner(j *rjob, res dispatchResult) {
	r.mu.Lock()
	if !j.state.Terminal() {
		j.replica, j.remote = res.replica, res.remote
	}
	r.mu.Unlock()
}

func (r *Router) cancelWasRequested(j *rjob) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return j.cancelRequested
}

// noteDispatchError books a lost dispatch: counters, the failover
// flight event when an accepted job was lost, and the log line.
func (r *Router) noteDispatchError(j *rjob, res dispatchResult) {
	now := r.now().UnixNano()
	r.mu.Lock()
	r.ctr.DispatchErrors++
	if res.accepted {
		r.ctr.Failovers++
		j.redispatches++
	}
	r.mu.Unlock()
	if res.accepted {
		r.tracer.Event(obs.Span{
			Trace: j.trace, Job: j.id, Key: j.key, Kind: obs.KindFailover,
			Start: now, End: now,
			Note: fmt.Sprintf("lost on %s: %s", res.replica, dispatchErrString(res)),
		})
		r.log.Warn("failover", obs.TraceAttr(j.trace), "job", j.id, "replica", res.replica, "err", dispatchErrString(res))
	} else {
		r.log.Info("dispatch refused", obs.TraceAttr(j.trace), "job", j.id, "replica", res.replica, "err", dispatchErrString(res))
	}
}

// noteHedge books a launched hedge dispatch.
func (r *Router) noteHedge(j *rjob) {
	now := r.now().UnixNano()
	r.mu.Lock()
	j.hedged = true
	r.ctr.HedgesStarted++
	r.mu.Unlock()
	r.tracer.Event(obs.Span{
		Trace: j.trace, Job: j.id, Key: j.key, Kind: obs.KindHedge,
		Start: now, End: now, Note: "straggler: second dispatch launched",
	})
	r.log.Info("hedge launched", obs.TraceAttr(j.trace), "job", j.id)
}

// noteHedgeWin books a hedge dispatch finishing first.
func (r *Router) noteHedgeWin(j *rjob, replica string) {
	now := r.now().UnixNano()
	r.mu.Lock()
	r.ctr.HedgeWins++
	r.mu.Unlock()
	r.tracer.Event(obs.Span{
		Trace: j.trace, Job: j.id, Key: j.key, Kind: obs.KindHedgeWin,
		Start: now, End: now, Note: "hedge on " + replica + " finished first",
	})
}

// noteBreakerFailure books a breaker strike, recording a trip event on
// the opening strike.
func (r *Router) noteBreakerFailure(replica string) {
	if r.breaker.OnFailure(replica) {
		now := r.now().UnixNano()
		r.tracer.Event(obs.Span{
			Kind: obs.KindBreakerTrip, Key: replica, Start: now, End: now,
			Note: "replica dispatch breaker opened",
		})
		r.log.Warn("replica breaker opened", "replica", replica)
	}
}

// finishAborted maps a dead driver context onto the job's terminal
// state: client cancel, router shutdown, or job timeout.
func (r *Router) finishAborted(j *rjob, ctx context.Context) {
	switch {
	case r.cancelWasRequested(j):
		r.finish(j, serve.JobCanceled, nil, "canceled by client")
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		r.finish(j, serve.JobFailed, nil, fmt.Sprintf("job timeout after %v", r.cfg.JobTimeout))
	default:
		r.finish(j, serve.JobCanceled, nil, "router shutting down")
	}
}

func dispatchErrString(res dispatchResult) string {
	if res.err != nil {
		return res.err.Error()
	}
	if res.st != nil {
		return fmt.Sprintf("replica state %s: %s", res.st.State, res.st.Error)
	}
	return "unknown dispatch outcome"
}

// remoteErrString extracts the replica's {"error": ...} body, falling
// back to the HTTP status line.
func remoteErrString(resp *http.Response, raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return resp.Status + ": " + e.Error
	}
	return resp.Status
}
