package fleet

import (
	"io"
	"sort"

	"memsched/internal/obs"
)

// promPrefix namespaces the router's exposition metrics, distinct from
// the replica daemon's memschedd_ prefix so a scrape of both never
// collides.
const promPrefix = "memrouter_"

// Metrics is the router's JSON metrics snapshot (GET /metrics with
// Accept: application/json).
type Metrics struct {
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsDone      int64 `json:"jobs_done"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCanceled  int64 `json:"jobs_canceled"`
	JobsInFlight  int   `json:"jobs_in_flight"`

	RejectedInvalid    int64 `json:"rejected_invalid"`
	RejectedShed       int64 `json:"rejected_shed"`
	RejectedDraining   int64 `json:"rejected_draining"`
	RejectedNoReplicas int64 `json:"rejected_no_replicas"`

	Dispatches     int64 `json:"dispatches"`
	DispatchErrors int64 `json:"dispatch_errors"`
	Failovers      int64 `json:"failovers"`
	HedgesStarted  int64 `json:"hedges_started"`
	HedgeWins      int64 `json:"hedge_wins"`
	// CacheServed counts jobs answered entirely from the result cache
	// (also included in JobsDone).
	CacheServed int64      `json:"cache_served"`
	Cache       CacheStats `json:"cache"`

	Replicas     []ReplicaView `json:"replicas"`
	BreakersOpen []string      `json:"breakers_open,omitempty"`
	BreakerTrips int64         `json:"breaker_trips"`

	// Membership change counters (dynamic join/leave/auto-evict).
	MembershipJoins  int64 `json:"membership_joins"`
	MembershipLeaves int64 `json:"membership_leaves"`
	MembershipEvicts int64 `json:"membership_evicts"`

	// Journal is the write-ahead journal view; nil when running without
	// one. JournalErrors counts failed appends (accept failures reject
	// the submission; complete failures only cost a replay).
	Journal       *JournalStats `json:"journal,omitempty"`
	JournalErrors int64         `json:"journal_errors,omitempty"`
	// Recovery summarizes the journal replay at startup.
	Recovery *RecoveryStats `json:"recovery,omitempty"`

	Draining      bool    `json:"draining"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Snapshot copies the router counters.
func (r *Router) Snapshot() Metrics {
	r.mu.Lock()
	m := Metrics{
		JobsSubmitted:      r.ctrSubmitted + r.ctrCacheServed,
		JobsDone:           r.ctrDone,
		JobsFailed:         r.ctrFailed,
		JobsCanceled:       r.ctrCanceled,
		JobsInFlight:       r.inflight,
		RejectedInvalid:    r.ctrRejInvalid,
		RejectedShed:       r.ctrRejShed,
		RejectedDraining:   r.ctrRejDraining,
		RejectedNoReplicas: r.ctrRejNoReplicas,
		Dispatches:         r.ctrDispatches,
		DispatchErrors:     r.ctrDispatchErrs,
		Failovers:          r.ctrFailovers,
		HedgesStarted:      r.ctrHedges,
		HedgeWins:          r.ctrHedgeWins,
		CacheServed:        r.ctrCacheServed,
		MembershipJoins:    r.ctrJoins,
		MembershipLeaves:   r.ctrLeaves,
		MembershipEvicts:   r.ctrEvicts,
		JournalErrors:      r.ctrJournalErrs,
		Draining:           r.draining,
		UptimeSeconds:      r.now().Sub(r.started).Seconds(),
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
	sort.Strings(m.BreakersOpen)
	m.BreakerTrips = r.breaker.TripCount()
	return m
}

// WritePrometheus renders the router metrics in the Prometheus text
// exposition format (0.0.4). Snapshot-then-format, like the replica
// daemon: a slow scrape never holds the Submit mutex.
func (r *Router) WritePrometheus(w io.Writer) error {
	m := r.Snapshot()
	so, dd := r.sojourn.Snapshot(), r.dispatchDur.Snapshot()
	spanTotal, eventTotal := r.tracer.SpanTotal(), r.tracer.EventTotal()

	p := obs.NewPromWriter(w)

	p.BuildInfo()

	counter := func(name, help string, v int64) {
		p.Meta(promPrefix+name, "counter", help)
		p.Sample(promPrefix+name, nil, float64(v))
	}
	counter("jobs_submitted_total", "Jobs accepted by the router (including cache hits).", m.JobsSubmitted)
	counter("jobs_done_total", "Jobs that completed successfully (including cache hits).", m.JobsDone)
	counter("jobs_failed_total", "Jobs that failed permanently.", m.JobsFailed)
	counter("jobs_canceled_total", "Jobs canceled by the client or a shutdown.", m.JobsCanceled)
	counter("dispatches_total", "Dispatch attempts sent to replicas.", m.Dispatches)
	counter("dispatch_errors_total", "Dispatch attempts that were lost or refused.", m.DispatchErrors)
	counter("failovers_total", "Accepted jobs re-dispatched after a replica loss.", m.Failovers)
	counter("hedges_total", "Hedge dispatches launched for stragglers.", m.HedgesStarted)
	counter("hedge_wins_total", "Jobs whose hedge dispatch finished first.", m.HedgeWins)
	counter("cache_served_total", "Jobs answered entirely from the result cache.", m.CacheServed)
	counter("cache_hits_total", "Result-cache lookups that hit.", m.Cache.Hits)
	counter("cache_misses_total", "Result-cache lookups that missed.", m.Cache.Misses)
	counter("cache_evictions_total", "Result-cache entries evicted by the LRU bounds.", m.Cache.Evictions)
	counter("breaker_trips_total", "Replica dispatch-breaker openings.", m.BreakerTrips)
	counter("trace_spans_total", "Lifecycle spans recorded into the flight-recorder ring.", int64(spanTotal))
	counter("trace_events_total", "Service events (failover/hedge/shed/cache/replica) recorded.", int64(eventTotal))

	p.Meta(promPrefix+"membership_changes_total", "counter", "Replica membership changes, by operation.")
	for _, mm := range []struct {
		op string
		v  int64
	}{
		{"join", m.MembershipJoins},
		{"leave", m.MembershipLeaves},
		{"evict", m.MembershipEvicts},
	} {
		p.Sample(promPrefix+"membership_changes_total", []obs.Label{{Name: "op", Value: mm.op}}, float64(mm.v))
	}
	if m.Journal != nil {
		counter("journal_records_total", "Write-ahead journal records appended by this process.", m.Journal.Records)
		counter("journal_errors_total", "Write-ahead journal append failures.", m.JournalErrors)
	}
	if m.Recovery != nil {
		counter("journal_recovered_complete_total", "Completed jobs re-registered from the journal at startup.", int64(m.Recovery.Complete))
		counter("journal_replayed_total", "Incomplete jobs re-dispatched from the journal at startup.", int64(m.Recovery.Replayed))
	}

	p.Meta(promPrefix+"rejected_total", "counter", "Submissions refused by the router, by reason.")
	for _, rr := range []struct {
		reason string
		v      int64
	}{
		{"invalid", m.RejectedInvalid},
		{"shed", m.RejectedShed},
		{"draining", m.RejectedDraining},
		{"no_replicas", m.RejectedNoReplicas},
	} {
		p.Sample(promPrefix+"rejected_total", []obs.Label{{Name: "reason", Value: rr.reason}}, float64(rr.v))
	}

	gauge := func(name, help string, v float64) {
		p.Meta(promPrefix+name, "gauge", help)
		p.Sample(promPrefix+name, nil, v)
	}
	gauge("jobs_in_flight", "Jobs accepted but not yet terminal.", float64(m.JobsInFlight))
	gauge("jobs_in_flight_limit", "In-flight bound beyond which submissions shed.", float64(r.cfg.MaxInFlight))
	gauge("cache_entries", "Result-cache entries resident.", float64(m.Cache.Entries))
	gauge("cache_bytes", "Result-cache payload bytes resident.", float64(m.Cache.Bytes))
	gauge("uptime_seconds", "Seconds since the router started.", m.UptimeSeconds)
	draining := 0.0
	if m.Draining {
		draining = 1
	}
	gauge("draining", "1 while a router drain is in progress.", draining)

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
