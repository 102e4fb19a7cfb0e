package serve

import (
	"io"
	"sort"
	"strings"

	"memsched/internal/obs"
)

// promPrefix namespaces every exposition metric of the service.
const promPrefix = "memschedd_"

// WritePrometheus renders the service metrics in the Prometheus text
// exposition format (0.0.4): RED counters, queue/worker/breaker gauges,
// and the latency histograms, overall and per (workload, strategy).
//
// The method is snapshot-then-format: Snapshot() takes the Submit mutex
// only long enough to copy two ints, the histograms and rings are read
// through their own snapshots, and all rendering happens on the copies
// — a slow scrape can never hold up admissions.
func (s *Server) WritePrometheus(w io.Writer) error {
	m := s.Snapshot()
	qw, at, so := s.queueWait.Snapshot(), s.attemptDur.Snapshot(), s.sojourn.Snapshot()
	qwk, atk, sok := s.queueWaitKey.Snapshot(), s.attemptDurKey.Snapshot(), s.sojournKey.Snapshot()
	spanTotal, eventTotal := s.tracer.SpanTotal(), s.tracer.EventTotal()

	p := obs.NewPromWriter(w)

	p.BuildInfo()

	// RED counters.
	counter := func(name, help string, v int64) {
		p.Meta(promPrefix+name, "counter", help)
		p.Sample(promPrefix+name, nil, float64(v))
	}
	counter("jobs_submitted_total", "Jobs accepted into the queue.", m.JobsSubmitted)
	counter("jobs_done_total", "Jobs that completed successfully.", m.JobsDone)
	counter("jobs_failed_total", "Jobs that failed permanently.", m.JobsFailed)
	counter("jobs_canceled_total", "Jobs canceled by the client or a drain.", m.JobsCanceled)
	counter("jobs_retried_total", "Transient-failure retries scheduled.", m.JobsRetried)
	counter("panics_confined_total", "Attempt panics confined to their job.", m.PanicsConfined)
	counter("breaker_trips_total", "Circuit-breaker openings across all keys.", m.BreakerTrips)
	counter("sim_events_total", "Simulator engine events processed by completed attempts.", m.SimEvents)
	counter("trace_spans_total", "Lifecycle spans recorded into the flight-recorder ring.", int64(spanTotal))
	counter("trace_events_total", "Service events (shed/breaker/retry) recorded into the flight recorder.", int64(eventTotal))

	// Rejections share a family, split by reason.
	p.Meta(promPrefix+"rejected_total", "counter", "Submissions refused, by reason.")
	for _, r := range []struct {
		reason string
		v      int64
	}{
		{"invalid", m.RejectedInvalid},
		{"queue_full", m.RejectedFull},
		{"breaker_open", m.RejectedBreaker},
		{"draining", m.RejectedDraining},
	} {
		p.Sample(promPrefix+"rejected_total", []obs.Label{{Name: "reason", Value: r.reason}}, float64(r.v))
	}

	// Saturation gauges.
	gauge := func(name, help string, v float64) {
		p.Meta(promPrefix+name, "gauge", help)
		p.Sample(promPrefix+name, nil, v)
	}
	gauge("queue_depth", "Jobs accepted but not yet running.", float64(m.QueueDepth))
	gauge("queue_capacity", "Queue slots before submissions shed.", float64(m.QueueCap))
	gauge("workers", "Worker-pool size.", float64(m.Workers))
	gauge("sims_running", "Simulation attempts executing right now.", float64(m.SimsRunning))
	gauge("uptime_seconds", "Seconds since the server started.", m.UptimeSeconds)
	draining := 0.0
	if m.Draining {
		draining = 1
	}
	gauge("draining", "1 while a graceful drain is in progress.", draining)

	// Open breakers, one gauge sample per tripped key.
	p.Meta(promPrefix+"breaker_open", "gauge", "1 for each (workload, strategy) key whose breaker is open or half-open.")
	open := append([]string(nil), m.BreakersOpen...)
	sort.Strings(open)
	for _, key := range open {
		p.Sample(promPrefix+"breaker_open", keyLabels(key), 1)
	}

	// Latency histograms: overall, then per key under a _by_key name so
	// the labelless aggregate and the labeled split never mix samples
	// inside one family.
	histPair := func(name, help string, overall obs.HistSnapshot, byKey map[string]obs.HistSnapshot) {
		p.Meta(promPrefix+name, "histogram", help)
		p.Histogram(promPrefix+name, nil, overall)
		p.Meta(promPrefix+name+"_by_key", "histogram", help+" (per workload and strategy)")
		keys := make([]string, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p.Histogram(promPrefix+name+"_by_key", keyLabels(k), byKey[k])
		}
	}
	histPair("queue_wait_seconds", "Time from admission to the first attempt.", qw, qwk)
	histPair("attempt_runtime_seconds", "Wall time of one simulation attempt.", at, atk)
	histPair("sojourn_seconds", "End-to-end time from admission to done/failed.", so, sok)

	return p.Flush()
}

// keyLabels splits a breaker key ("workload|strategy") into exposition
// labels.
func keyLabels(key string) []obs.Label {
	w, strat, _ := strings.Cut(key, "|")
	return []obs.Label{{Name: "workload", Value: w}, {Name: "strategy", Value: strat}}
}

// LatencySnapshots returns the overall queue-wait, attempt-runtime and
// sojourn histograms (tests and status pages read these; the exposition
// endpoint renders the same snapshots).
func (s *Server) LatencySnapshots() (queueWait, attempt, sojourn obs.HistSnapshot) {
	return s.queueWait.Snapshot(), s.attemptDur.Snapshot(), s.sojourn.Snapshot()
}

// Flight is the /debug/flight dump.
type Flight = obs.Flight

// FlightDump is the /debug/flight view: the last n job timelines and
// the last n shed/breaker/retry events (n <= 0 selects 32). It reads
// only ring snapshots — never the Submit mutex.
func (s *Server) FlightDump(n int) Flight { return s.tracer.FlightDump(n) }

// JobTrace is the /debug/jobs/{id}/trace payload: the job's status plus
// every span the flight recorder still retains for it. Spans is empty
// when the job was not sampled or its spans were already evicted.
type JobTrace struct {
	Status JobStatus  `json:"status"`
	Spans  []obs.Span `json:"spans"`
}

// JobTraceDump returns one job's span timeline.
func (s *Server) JobTraceDump(id string) (JobTrace, error) {
	st, err := s.Job(id)
	if err != nil {
		return JobTrace{}, err
	}
	return JobTrace{Status: st, Spans: s.tracer.JobSpans(id)}, nil
}

// Spans exposes the retained lifecycle spans oldest-first (the
// /debug/spans.jsonl export).
func (s *Server) Spans() []obs.Span { return s.tracer.Spans() }
