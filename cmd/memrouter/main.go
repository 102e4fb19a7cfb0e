// Command memrouter fronts a fleet of memschedd replicas: it shards
// jobs across them by consistent hashing on the canonical job key,
// probes replica health, re-dispatches jobs lost to a dead replica
// (safe because results are bit-deterministic), hedges stragglers onto
// the next preferred replica, answers repeated specs from a bounded
// content-addressed result cache, and sheds excess load with 429 +
// Retry-After once its in-flight bound fills.
//
// Usage:
//
//	memrouter -addr 127.0.0.1:8090 -replicas http://h1:8080,http://h2:8080
//	memrouter -journal /var/lib/memrouter/jobs.journal ...
//	memrouter -version
//
// Endpoints mirror memschedd: POST/GET /jobs, GET /jobs/{id} (?wait=1
// long-polls), DELETE /jobs/{id}, /healthz, /readyz, /metrics
// (Prometheus text, or JSON with ?format=json), /debug/flight,
// /debug/spans.jsonl — plus GET /replicas for the health table,
// POST /replicas to join a replica at runtime and DELETE /replicas to
// drain one out. On SIGTERM or SIGINT the router drains: new
// submissions get 503, in-flight jobs finish under -drain-timeout,
// then it exits 0 (1 if the deadline forced cancellation).
//
// With -journal the router appends every job transition to an fsync'd
// write-ahead journal before acknowledging it, and on startup replays
// the journal: completed jobs are re-served byte-identically from
// their recorded results, incomplete ones are re-dispatched (safe
// because replica results are bit-deterministic). A kill -9 therefore
// loses no accepted job.
//
// The "listening on" port-discovery line, the "journal recovered"
// summary and the final drain summary stay on stdout in both log
// formats — scripts and the chaos CI smoke parse them, same contract
// as memschedd.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strings"
	"time"

	"memsched/internal/buildinfo"
	"memsched/internal/fleet"
	"memsched/internal/obs"
	"memsched/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", "127.0.0.1:8090", "listen address (host:port; port 0 picks a free port)")
		replicas     = flag.String("replicas", "", "comma-separated memschedd base URLs (required)")
		vnodes       = flag.Int("vnodes", fleet.DefaultVNodes, "consistent-hash virtual nodes per replica")
		maxInFlight  = flag.Int("max-in-flight", 256, "max accepted-but-unfinished jobs before submissions are shed with 429")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "end-to-end deadline per job, across failovers and hedges")
		pollTimeout  = flag.Duration("poll-timeout", 2*time.Second, "one ?wait=1 long-poll bound against a replica")
		maxAttempts  = flag.Int("max-attempts", 0, "max dispatch attempts per job (0 = 3 per replica)")
		baseBackoff  = flag.Duration("backoff", 50*time.Millisecond, "base delay before re-trying when no replica is eligible")
		maxBackoff   = flag.Duration("max-backoff", 2*time.Second, "cap on that delay")
		brkThreshold = flag.Int("breaker-threshold", 3, "consecutive dispatch failures that open a replica's breaker (-1 disables)")
		brkCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker skips a replica before probing")
		hedgeQ       = flag.Float64("hedge-quantile", 0.95, "sojourn quantile that arms the hedge timer")
		hedgeMin     = flag.Duration("hedge-min-delay", 250*time.Millisecond, "hedge-timer floor while the latency histogram is cold")
		noHedge      = flag.Bool("no-hedge", false, "disable hedged requests")
		cacheEntries = flag.Int("cache-entries", fleet.DefaultCacheEntries, "result-cache entry bound")
		cacheBytes   = flag.Int64("cache-bytes", fleet.DefaultCacheBytes, "result-cache byte bound")
		noCache      = flag.Bool("no-cache", false, "disable the content-addressed result cache")
		maxN         = flag.Int("max-n", 300, "admission cap on workload size")
		maxGPUs      = flag.Int("max-gpus", 8, "admission cap on GPU count")
		healthEvery  = flag.Duration("health-interval", 250*time.Millisecond, "replica /readyz probe cadence (jittered ±20% to avoid probe synchronization)")
		healthFails  = flag.Int("health-fail-threshold", 3, "consecutive probe/dispatch failures that mark a replica down")
		journalPath  = flag.String("journal", "", "write-ahead job journal path; empty disables durability")
		evictAfter   = flag.Duration("evict-after", 0, "auto-evict a replica continuously down this long (0 disables)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs")
		logFormat    = flag.String("log-format", "text", "structured log format: text or json")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		traceSample  = flag.Int("trace-sample", 1, "record lifecycle spans for every n-th job (1 = all, -1 disables)")
		traceSpans   = flag.Int("trace-spans", 4096, "flight-recorder span ring capacity (-1 disables)")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		v, gv := buildinfo.Resolve()
		fmt.Printf("memrouter %s (%s)\n", v, gv)
		return 0
	}

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	var journal *fleet.Journal
	if *journalPath != "" {
		journal, err = fleet.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memrouter: open journal: %v\n", err)
			return 2
		}
		defer journal.Close()
	}
	r, err := fleet.New(fleet.Config{
		Replicas:         urls,
		VNodes:           *vnodes,
		MaxInFlight:      *maxInFlight,
		JobTimeout:       *jobTimeout,
		PollTimeout:      *pollTimeout,
		MaxAttempts:      *maxAttempts,
		BaseBackoff:      *baseBackoff,
		MaxBackoff:       *maxBackoff,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		HedgeQuantile:    *hedgeQ,
		HedgeMinDelay:    *hedgeMin,
		DisableHedge:     *noHedge,
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheBytes,
		DisableCache:     *noCache,
		MaxN:             *maxN,
		MaxGPUs:          *maxGPUs,
		Health: fleet.HealthConfig{
			Interval:      *healthEvery,
			FailThreshold: *healthFails,
		},
		Journal:       journal,
		EvictAfter:    *evictAfter,
		Logger:        logger,
		TraceSample:   *traceSample,
		TraceSpanCap:  *traceSpans,
		TraceEventCap: *traceSpans,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "memrouter: %v\n", err)
		return 2
	}
	r.Start()

	// Listen explicitly so "-addr :0" prints the real port before any
	// client needs it; this stdout line is the machine-readable
	// port-discovery contract, identical in shape to memschedd's.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	fmt.Printf("memrouter listening on http://%s\n", ln.Addr())
	if journal != nil {
		// Machine-readable recovery summary, same stdout contract as the
		// "listening on" line: the chaos e2e and the CI smoke parse it.
		rec := r.Recovery()
		fmt.Printf("memrouter: journal recovered: %d complete, %d replayed, %d deduped (%s)\n",
			rec.Complete, rec.Replayed, rec.Deduped, journal.Path())
	}
	logger.Info("memrouter started",
		"addr", ln.Addr().String(),
		"replicas", len(urls),
		"max_in_flight", *maxInFlight,
		"log_format", *logFormat)

	code, drained := serve.ServeUntilSignal(ln, r.Handler(), logger, *drainTimeout, r.Drain)
	if !drained {
		return code
	}
	m := r.Snapshot()
	logger.Info("drained",
		slog.Int64("jobs_done", m.JobsDone),
		slog.Int64("jobs_failed", m.JobsFailed),
		slog.Int64("jobs_canceled", m.JobsCanceled),
		slog.Int64("failovers", m.Failovers),
		slog.Int64("cache_served", m.CacheServed))
	// The stdout summary is part of the CLI contract (parsed by the e2e
	// test and the CI smoke); it stays printf in both log formats.
	fmt.Printf("memrouter: drained (done %d, failed %d, canceled %d, failovers %d, hedge wins %d, cache served %d); exiting\n",
		m.JobsDone, m.JobsFailed, m.JobsCanceled, m.Failovers, m.HedgeWins, m.CacheServed)
	return code
}
