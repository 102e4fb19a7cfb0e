// Command memschedd is the long-running scheduling service: an HTTP/JSON
// daemon that accepts simulation jobs, runs them on a bounded worker
// pool with per-job deadlines and panic confinement, retries transient
// failures under capped exponential backoff, trips a per-(workload,
// strategy) circuit breaker on repeated failures, and sheds load with
// 429 + Retry-After once its queue fills.
//
// Usage:
//
//	memschedd -addr 127.0.0.1:8080 -workers 4 -queue 64
//	memschedd -version
//
// Endpoints: POST/GET /jobs, GET /jobs/{id} (?wait=1 long-polls),
// DELETE /jobs/{id}, /healthz, /readyz, /metrics (Prometheus text, or
// JSON with ?format=json), /debug/flight, /debug/jobs/{id}/trace,
// /debug/spans.jsonl. On SIGTERM or SIGINT the daemon drains: /readyz
// flips to 503, queued jobs are rejected, in-flight jobs finish under
// -drain-timeout, then it exits 0 (1 if the drain deadline forced
// cancellation).
//
// Structured logs go to stderr via log/slog (-log-format=text|json,
// -log-level=debug|info|warn|error); job-scoped lines carry the trace
// ID from /debug/jobs/{id}/trace. The "listening on" port-discovery
// line and the final drain summary stay on stdout in both log formats —
// scripts (and the drain e2e test) parse them.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"time"

	"memsched/internal/buildinfo"
	"memsched/internal/metrics"
	"memsched/internal/obs"
	"memsched/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		queueCap     = flag.Int("queue", 64, "max queued jobs before submissions are shed with 429")
		jobTimeout   = flag.Duration("job-timeout", 2*time.Minute, "default per-job deadline")
		maxTimeout   = flag.Duration("max-job-timeout", 10*time.Minute, "cap on per-request timeout overrides")
		retries      = flag.Int("retries", 3, "max retries of a transiently failing job (-1 disables)")
		baseBackoff  = flag.Duration("backoff", 100*time.Millisecond, "base retry backoff")
		maxBackoff   = flag.Duration("max-backoff", 5*time.Second, "retry backoff cap")
		brkThreshold = flag.Int("breaker-threshold", 5, "consecutive failures that open a (workload, strategy) breaker (-1 disables)")
		brkCooldown  = flag.Duration("breaker-cooldown", 30*time.Second, "how long an open breaker sheds before probing")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs")
		maxN         = flag.Int("max-n", 300, "admission cap on workload size")
		maxGPUs      = flag.Int("max-gpus", 8, "admission cap on GPU count")
		logFormat    = flag.String("log-format", "text", "structured log format: text or json")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		traceSample  = flag.Int("trace-sample", 1, "record lifecycle spans for every n-th job (1 = all, -1 disables)")
		traceSpans   = flag.Int("trace-spans", 4096, "flight-recorder span ring capacity (-1 disables)")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		v, gv := buildinfo.Resolve()
		fmt.Printf("memschedd %s (%s)\n", v, gv)
		return 0
	}

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	gauges := new(metrics.Gauges)
	gauges.Publish("memschedd")
	s := serve.New(serve.Config{
		Workers:          *workers,
		QueueCap:         *queueCap,
		JobTimeout:       *jobTimeout,
		MaxJobTimeout:    *maxTimeout,
		MaxRetries:       *retries,
		BaseBackoff:      *baseBackoff,
		MaxBackoff:       *maxBackoff,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		MaxN:             *maxN,
		MaxGPUs:          *maxGPUs,
		Gauges:           gauges,
		Logger:           logger,
		TraceSample:      *traceSample,
		TraceSpanCap:     *traceSpans,
	})

	// Listen explicitly so "-addr :0" prints the real port before any
	// client needs it (the drain e2e test depends on this line). This
	// stdout line is the machine-readable port-discovery contract and is
	// printed identically under both log formats.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	fmt.Printf("memschedd listening on http://%s\n", ln.Addr())
	logger.Info("memschedd started",
		"addr", ln.Addr().String(),
		"workers", *workers,
		"queue_cap", *queueCap,
		"log_format", *logFormat)

	code, drained := serve.ServeUntilSignal(ln, s.Handler(), logger, *drainTimeout, s.Drain)
	if !drained {
		return code
	}
	m := s.Snapshot()
	logger.Info("drained",
		slog.Int64("jobs_done", m.JobsDone),
		slog.Int64("jobs_failed", m.JobsFailed),
		slog.Int64("jobs_canceled", m.JobsCanceled))
	// The stdout summary is part of the CLI contract (parsed by the e2e
	// test and the CI smoke); it stays printf in both log formats.
	fmt.Printf("memschedd: drained (done %d, failed %d, canceled %d); exiting\n",
		m.JobsDone, m.JobsFailed, m.JobsCanceled)
	return code
}
