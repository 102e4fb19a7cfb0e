package fleet

import (
	"io"

	"memsched/internal/obs"
)

// promPrefix namespaces the router's exposition metrics, distinct from
// the replica daemon's memschedd_ prefix so a scrape of both never
// collides.
const promPrefix = "memrouter_"

// Counters are the router's job, dispatch and membership counters,
// bumped under Router.mu. Their tags name the /metrics exposition (see
// obs.PromWriter.Fields).
type Counters struct {
	JobsSubmitted int64 `json:"jobs_submitted" prom:"jobs_submitted_total counter Jobs accepted by the router (including cache hits)."`
	JobsDone      int64 `json:"jobs_done" prom:"jobs_done_total counter Jobs that completed successfully (including cache hits)."`
	JobsFailed    int64 `json:"jobs_failed" prom:"jobs_failed_total counter Jobs that failed permanently."`
	JobsCanceled  int64 `json:"jobs_canceled" prom:"jobs_canceled_total counter Jobs canceled by the client or a shutdown."`

	RejectedInvalid    int64 `json:"rejected_invalid" prom:"rejected_total{reason=invalid} counter Submissions refused by the router, by reason."`
	RejectedShed       int64 `json:"rejected_shed" prom:"rejected_total{reason=shed} counter"`
	RejectedDraining   int64 `json:"rejected_draining" prom:"rejected_total{reason=draining} counter"`
	RejectedNoReplicas int64 `json:"rejected_no_replicas" prom:"rejected_total{reason=no_replicas} counter"`

	Dispatches     int64 `json:"dispatches" prom:"dispatches_total counter Dispatch attempts sent to replicas."`
	DispatchErrors int64 `json:"dispatch_errors" prom:"dispatch_errors_total counter Dispatch attempts that were lost or refused."`
	Failovers      int64 `json:"failovers" prom:"failovers_total counter Accepted jobs re-dispatched after a replica loss."`
	HedgesStarted  int64 `json:"hedges_started" prom:"hedges_total counter Hedge dispatches launched for stragglers."`
	HedgeWins      int64 `json:"hedge_wins" prom:"hedge_wins_total counter Jobs whose hedge dispatch finished first."`
	// CacheServed counts jobs answered entirely from the result cache
	// (also included in JobsSubmitted and JobsDone).
	CacheServed int64 `json:"cache_served" prom:"cache_served_total counter Jobs answered entirely from the result cache."`

	// Membership change counters (dynamic join/leave/auto-evict).
	MembershipJoins  int64 `json:"membership_joins" prom:"membership_changes_total{op=join} counter Replica membership changes, by operation."`
	MembershipLeaves int64 `json:"membership_leaves" prom:"membership_changes_total{op=leave} counter"`
	MembershipEvicts int64 `json:"membership_evicts" prom:"membership_changes_total{op=evict} counter"`

	// JournalErrors counts failed journal appends (accept failures
	// reject the submission; complete failures only cost a replay). It
	// is exposed only with a journal, next to Metrics.Journal.
	JournalErrors int64 `json:"journal_errors,omitempty"`
}

// Metrics is the router's JSON metrics snapshot (GET /metrics with
// Accept: application/json). Fields tagged prom render the Prometheus
// page too.
type Metrics struct {
	Counters
	JobsInFlight int        `json:"jobs_in_flight" prom:"jobs_in_flight gauge Jobs accepted but not yet terminal."`
	Cache        CacheStats `json:"cache"`

	Replicas     []ReplicaView `json:"replicas"`
	BreakersOpen []string      `json:"breakers_open,omitempty"`
	BreakerTrips int64         `json:"breaker_trips" prom:"breaker_trips_total counter Replica dispatch-breaker openings."`

	// Journal is the write-ahead journal view; nil when running without
	// one.
	Journal *JournalStats `json:"journal,omitempty"`
	// Recovery summarizes the journal replay at startup.
	Recovery *RecoveryStats `json:"recovery,omitempty"`

	Draining      bool    `json:"draining" prom:"draining gauge 1 while a router drain is in progress."`
	UptimeSeconds float64 `json:"uptime_seconds" prom:"uptime_seconds gauge Seconds since the router started."`
}

// Snapshot copies the router counters.
func (r *Router) Snapshot() Metrics {
	r.mu.Lock()
	m := Metrics{
		Counters:      r.ctr,
		JobsInFlight:  r.inflight,
		Draining:      r.draining,
		UptimeSeconds: r.now().Sub(r.started).Seconds(),
	}
	if r.recStats != (RecoveryStats{}) {
		rec := r.recStats
		m.Recovery = &rec
	}
	r.mu.Unlock()
	if r.journal != nil {
		js := r.journal.Stats()
		m.Journal = &js
	}
	m.Cache = r.CacheStats()
	m.Replicas = r.health.Snapshot()
	m.BreakersOpen = r.breaker.OpenKeys()
	m.BreakerTrips = r.breaker.TripCount()
	return m
}

// WritePrometheus renders the router metrics in the Prometheus text
// exposition format (0.0.4): the tagged fields of the Metrics snapshot,
// then what it holds as lists or outside it. Snapshot-then-format, like
// the replica daemon: a slow scrape never holds the Submit mutex.
func (r *Router) WritePrometheus(w io.Writer) error {
	m := r.Snapshot()
	so, dd := r.sojourn.Snapshot(), r.dispatchDur.Snapshot()
	spanTotal, eventTotal := r.tracer.SpanTotal(), r.tracer.EventTotal()

	p := obs.NewPromWriter(w)

	p.BuildInfo()
	p.Fields(promPrefix, m)
	if m.Journal != nil {
		p.Meta(promPrefix+"journal_errors_total", "counter", "Write-ahead journal append failures.")
		p.Sample(promPrefix+"journal_errors_total", nil, float64(m.JournalErrors))
	}
	p.Meta(promPrefix+"trace_spans_total", "counter", "Lifecycle spans recorded into the flight-recorder ring.")
	p.Sample(promPrefix+"trace_spans_total", nil, float64(spanTotal))
	p.Meta(promPrefix+"trace_events_total", "counter", "Service events (failover/hedge/shed/cache/replica) recorded.")
	p.Sample(promPrefix+"trace_events_total", nil, float64(eventTotal))
	p.Meta(promPrefix+"jobs_in_flight_limit", "gauge", "In-flight bound beyond which submissions shed.")
	p.Sample(promPrefix+"jobs_in_flight_limit", nil, float64(r.cfg.MaxInFlight))

	// Per-replica state: one sample per replica, value 0 up / 1
	// draining / 2 down, plus the last observed queue depth.
	p.Meta(promPrefix+"replica_state", "gauge", "Replica health: 0 up, 1 draining, 2 down.")
	for _, rv := range m.Replicas {
		p.Sample(promPrefix+"replica_state", []obs.Label{{Name: "replica", Value: rv.Replica}}, float64(rv.State))
	}
	p.Meta(promPrefix+"replica_queue_depth", "gauge", "Replica queue depth from its last /readyz body.")
	for _, rv := range m.Replicas {
		p.Sample(promPrefix+"replica_queue_depth", []obs.Label{{Name: "replica", Value: rv.Replica}}, float64(rv.QueueDepth))
	}
	p.Meta(promPrefix+"breaker_open", "gauge", "1 for each replica whose dispatch breaker is open or half-open.")
	for _, rep := range m.BreakersOpen {
		p.Sample(promPrefix+"breaker_open", []obs.Label{{Name: "replica", Value: rep}}, 1)
	}

	p.Meta(promPrefix+"sojourn_seconds", "histogram", "End-to-end routed-job latency (cache hits excluded).")
	p.Histogram(promPrefix+"sojourn_seconds", nil, so)
	p.Meta(promPrefix+"dispatch_seconds", "histogram", "One dispatch's accept-to-terminal latency on a replica.")
	p.Histogram(promPrefix+"dispatch_seconds", nil, dd)

	return p.Flush()
}

// FlightDump is the router's /debug/flight view: recent job timelines
// plus the failover/hedge/shed/cache/replica event ring (n <= 0 selects
// 32).
func (r *Router) FlightDump(n int) obs.Flight { return r.tracer.FlightDump(n) }

// Spans returns the retained lifecycle spans (for the JSONL export).
func (r *Router) Spans() []obs.Span { return r.tracer.Spans() }
