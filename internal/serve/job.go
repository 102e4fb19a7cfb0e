package serve

import (
	"context"
	"fmt"
	"time"

	"memsched/internal/critpath"
	"memsched/internal/expr"
	"memsched/internal/fault"
	"memsched/internal/metrics"
	"memsched/internal/platform"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

// JobRequest is one scheduling job: a workload, a platform shape and a
// strategy, optionally perturbed by a fault plan. It is the POST /jobs
// body.
type JobRequest struct {
	// Workload names the instance generator: matmul2d, matmul2d-rand,
	// matmul3d, cholesky, sparse2d.
	Workload string `json:"workload"`
	// N is the workload size parameter (task grid edge, tile count...).
	N int `json:"n"`
	// Keep is the sparse2d task-keep fraction (0 uses the paper default).
	Keep float64 `json:"keep,omitempty"`
	// GPUs is the number of simulated V100s (default 1).
	GPUs int `json:"gpus,omitempty"`
	// MemMB overrides the per-GPU memory budget in MB (0 keeps the
	// platform default).
	MemMB int64 `json:"mem_mb,omitempty"`
	// Strategy is the scheduler label (see `memsched -list`); default
	// DARTS+LUF.
	Strategy string `json:"strategy,omitempty"`
	// Seed feeds the run (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Cost charges the scheduler's decision time to the simulated clock.
	Cost bool `json:"cost,omitempty"`
	// Faults is an optional fault plan in fault.ParseSpec syntax, e.g.
	// "drop=1@5ms,transient=0.05".
	Faults string `json:"faults,omitempty"`
	// TimeoutMS overrides the server's per-job deadline (capped by the
	// server's maximum; 0 uses the server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// CritPath requests makespan attribution: the run records its trace
	// and the completed job's result carries the critical-path blame
	// summary (categories, counterfactual bounds, top blamed tasks and
	// data; see internal/critpath).
	CritPath bool `json:"critpath,omitempty"`
}

// Key is the circuit-breaker bucket of the request: jobs of the same
// workload under the same strategy fail together (a pathological
// combination keeps failing deterministically), so they trip together.
func (r *JobRequest) Key() string {
	return r.Workload + "|" + r.Strategy
}

// Normalize fills the documented defaults in place. Submit applies it
// automatically; the fleet layer calls it directly so canonical job
// keys are computed on the same spec a replica would run.
func (r *JobRequest) Normalize() {
	if r.GPUs == 0 {
		r.GPUs = 1
	}
	if r.Strategy == "" {
		r.Strategy = "DARTS+LUF"
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Keep == 0 {
		r.Keep = workload.DefaultSparseKeep
	}
}

// Validate is the admission control: a request that would build an
// oversized instance, name an unknown workload or strategy, or carry an
// invalid fault plan is rejected before it consumes a queue slot. The
// fleet router shares it so an invalid job is a local 400, not a wasted
// round-trip to a replica.
func (r *JobRequest) Validate(maxN, maxGPUs int) error {
	if err := workload.Known(r.Workload); err != nil {
		return err
	}
	if r.N < 1 || r.N > maxN {
		return fmt.Errorf("n %d out of range [1, %d]", r.N, maxN)
	}
	if r.GPUs < 1 || r.GPUs > maxGPUs {
		return fmt.Errorf("gpus %d out of range [1, %d]", r.GPUs, maxGPUs)
	}
	if r.MemMB < 0 {
		return fmt.Errorf("mem_mb %d negative", r.MemMB)
	}
	if r.Keep < 0 || r.Keep > 1 {
		return fmt.Errorf("keep %g out of range [0, 1]", r.Keep)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms %d negative", r.TimeoutMS)
	}
	if _, err := sched.ByName(r.Strategy); err != nil {
		return err
	}
	plan, err := fault.ParseSpec(r.Faults)
	if err != nil {
		return err
	}
	if err := plan.Validate(r.GPUs); err != nil {
		return err
	}
	return nil
}

// runRequest is the production Runner: it builds the instance and
// simulates it under the request's strategy, platform and fault plan.
// The caller owns deadline and panic confinement.
func runRequest(ctx context.Context, req JobRequest) (*sim.Result, error) {
	inst, err := workload.ByName(req.Workload, req.N, req.Keep, req.Seed)
	if err != nil {
		return nil, err
	}
	strat, err := sched.ByName(req.Strategy)
	if err != nil {
		return nil, err
	}
	plan, err := fault.ParseSpec(req.Faults)
	if err != nil {
		return nil, err
	}
	plat := platform.V100(req.GPUs)
	if req.MemMB > 0 {
		plat.MemoryBytes = req.MemMB * platform.MB
	}
	nsPerOp := 0.0
	if req.Cost {
		nsPerOp = sim.DefaultNsPerOp
	}
	if req.CritPath {
		return expr.RunOneTraced(ctx, inst, strat, plat, nsPerOp, req.Seed, false, plan)
	}
	return expr.RunOneFaulty(ctx, inst, strat, plat, nsPerOp, req.Seed, false, plan)
}

// JobState is the lifecycle position of a job.
type JobState string

// Job lifecycle states.
const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: executing (or backing off between retry attempts).
	JobRunning JobState = "running"
	// JobDone: completed; Result is set.
	JobDone JobState = "done"
	// JobFailed: permanently failed (deadline, non-transient error, or
	// retries exhausted); Error is set.
	JobFailed JobState = "failed"
	// JobCanceled: canceled by the client (or rejected by a drain)
	// before completing.
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobResult is the outcome of a completed job: the standard metrics row
// plus the fault/recovery counters of faulty runs and — for jobs
// submitted with "critpath": true — the makespan attribution.
type JobResult struct {
	metrics.Row
	Faults   *sim.FaultStats   `json:"faults,omitempty"`
	CritPath *critpath.Summary `json:"critpath,omitempty"`
}

// JobStatus is the client-visible snapshot of a job (GET /jobs/{id}).
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Trace is the job's trace ID: the correlation key for
	// /debug/jobs/{id}/trace spans and the daemon's log lines.
	Trace   uint64     `json:"trace,omitempty"`
	Request JobRequest `json:"request"`
	// Attempts counts started simulation attempts (> 1 means retries).
	Attempts int `json:"attempts,omitempty"`
	// Error is the permanent failure, set when State is failed (and for
	// canceled jobs, the cancellation reason).
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	// SubmittedMS/StartedMS/FinishedMS are Unix milliseconds; zero when
	// the job has not reached that point.
	SubmittedMS int64 `json:"submitted_unix_ms,omitempty"`
	StartedMS   int64 `json:"started_unix_ms,omitempty"`
	FinishedMS  int64 `json:"finished_unix_ms,omitempty"`
}

// job is the server-internal state; all mutable fields are guarded by
// Server.mu.
type job struct {
	id  string
	req JobRequest
	// key is req.Key(), computed once at admission and shared by the
	// breaker, the histograms and every span of the job.
	key string
	// trace is the correlation ID threaded through the job's spans and
	// log lines; sampled says whether lifecycle spans are recorded.
	trace   uint64
	sampled bool
	state   JobState
	attempt int
	errMsg  string
	result  *JobResult

	submitted time.Time
	started   time.Time
	finished  time.Time

	// cancelRequested is set by Cancel; a queued job is skipped by the
	// worker, a running one has its context canceled.
	cancelRequested bool
	cancel          context.CancelFunc
	// done is closed when the job reaches a terminal state (the ?wait
	// long-poll and the drain path block on it).
	done chan struct{}
}

func (j *job) status() JobStatus {
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		Trace:    j.trace,
		Request:  j.req,
		Attempts: j.attempt,
		Error:    j.errMsg,
		Result:   j.result,
	}
	if !j.submitted.IsZero() {
		st.SubmittedMS = j.submitted.UnixMilli()
	}
	if !j.started.IsZero() {
		st.StartedMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		st.FinishedMS = j.finished.UnixMilli()
	}
	return st
}
