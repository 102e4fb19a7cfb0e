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
// exposition format (0.0.4): the tagged fields of the Metrics snapshot
// (RED counters, queue/worker/breaker gauges), the flight-recorder
// totals, and the latency histograms, overall and per (workload,
// strategy).
//
// The method is snapshot-then-format: Snapshot() takes the Submit mutex
// only long enough to copy the counters and the queue state, the
// histograms and rings are read through their own snapshots, and all
// rendering happens on the copies — a slow scrape can never hold up
// admissions.
func (s *Server) WritePrometheus(w io.Writer) error {
	m := s.Snapshot()
	qw, at, so := s.queueWait.Snapshot(), s.attemptDur.Snapshot(), s.sojourn.Snapshot()
	qwk, atk, sok := s.queueWaitKey.Snapshot(), s.attemptDurKey.Snapshot(), s.sojournKey.Snapshot()
	spanTotal, eventTotal := s.tracer.SpanTotal(), s.tracer.EventTotal()

	p := obs.NewPromWriter(w)

	p.BuildInfo()
	p.Fields(promPrefix, m)
	p.Meta(promPrefix+"trace_spans_total", "counter", "Lifecycle spans recorded into the flight-recorder ring.")
	p.Sample(promPrefix+"trace_spans_total", nil, float64(spanTotal))
	p.Meta(promPrefix+"trace_events_total", "counter", "Service events (shed/breaker/retry) recorded into the flight recorder.")
	p.Sample(promPrefix+"trace_events_total", nil, float64(eventTotal))

	// Open breakers, one gauge sample per tripped key.
	p.Meta(promPrefix+"breaker_open", "gauge", "1 for each (workload, strategy) key whose breaker is open or half-open.")
	for _, key := range m.BreakersOpen {
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
