package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind names one step of a job's lifecycle (or one service-level
// event for spans recorded into the event ring).
type SpanKind uint8

// Span kinds. Admit..BreakerReject trace one job's causality chain;
// Shed..BreakerTrip are service events without a job (the submission
// was refused before a job existed, or the event is about a breaker
// key rather than one job).
const (
	KindAdmit         SpanKind = iota + 1 // job accepted into the queue
	KindQueue                             // time between admit and the first attempt
	KindAttempt                           // one runner attempt (Attempt is 1-based)
	KindBackoff                           // retry backoff sleep between attempts
	KindRetry                             // a transient failure scheduled a retry
	KindDone                              // terminal: completed
	KindFail                              // terminal: permanently failed
	KindCancel                            // terminal: canceled (client or drain)
	KindShed                              // submission shed: queue full (429)
	KindBreakerReject                     // submission shed: breaker open (503)
	KindDrainReject                       // submission refused: draining (503)
	KindInvalid                           // submission refused: admission control (400)
	KindBreakerTrip                       // a (workload,strategy) breaker opened

	// Fleet-layer kinds, recorded by the memrouter flight recorder.
	KindRoute        // job dispatched to a replica (Note names it)
	KindFailover     // job re-dispatched off a dead/draining replica
	KindHedge        // straggler job hedged onto a second replica
	KindHedgeWin     // a hedged dispatch finished first (Note names the winner)
	KindCacheHit     // submission answered from the result cache
	KindReplicaDown  // health prober marked a replica down
	KindReplicaUp    // health prober marked a replica back up
	KindReplicaJoin  // replica joined the fleet membership
	KindReplicaLeave // replica left the membership (drain, force, or auto-evict)
	KindRecover      // job replayed from the write-ahead journal after a restart
)

var spanKindNames = [...]string{
	KindAdmit:         "admit",
	KindQueue:         "queue",
	KindAttempt:       "attempt",
	KindBackoff:       "backoff",
	KindRetry:         "retry",
	KindDone:          "done",
	KindFail:          "fail",
	KindCancel:        "cancel",
	KindShed:          "shed",
	KindBreakerReject: "breaker-reject",
	KindDrainReject:   "drain-reject",
	KindInvalid:       "invalid",
	KindBreakerTrip:   "breaker-trip",
	KindRoute:         "route",
	KindFailover:      "failover",
	KindHedge:         "hedge",
	KindHedgeWin:      "hedge-win",
	KindCacheHit:      "cache-hit",
	KindReplicaDown:   "replica-down",
	KindReplicaUp:     "replica-up",
	KindReplicaJoin:   "replica-join",
	KindReplicaLeave:  "replica-leave",
	KindRecover:       "recover",
}

// String returns the JSONL wire name of the kind.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) && spanKindNames[k] != "" {
		return spanKindNames[k]
	}
	return "unknown"
}

// KindByName inverts String; unknown names map to 0.
func KindByName(name string) SpanKind {
	for k, n := range spanKindNames {
		if n == name {
			return SpanKind(k)
		}
	}
	return 0
}

// Span is one fixed-size trace record. Instant events carry Start ==
// End. Spans are plain values: recording one copies string headers and
// integers, never allocates.
type Span struct {
	// Trace correlates every span of one submission (including
	// rejections, which get a trace ID but no job).
	Trace uint64
	// Job is the job ID ("job-000123"), empty for service events.
	Job string
	// Key is the (workload|strategy) breaker key.
	Key  string
	Kind SpanKind
	// Attempt is the 1-based attempt number for attempt/backoff/retry
	// spans, 0 otherwise.
	Attempt int32
	// Start and End are wall-clock unix nanoseconds.
	Start, End int64
	// Note carries the human detail: an error message, a rejection
	// reason, a retry delay.
	Note string
}

// Duration returns End-Start.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// jsonSpan is the export shape of a Span (kind as a string, RFC3339-free
// integer timestamps so the JSONL stays cheap and sortable).
type jsonSpan struct {
	Trace   uint64 `json:"trace"`
	Job     string `json:"job,omitempty"`
	Key     string `json:"key,omitempty"`
	Kind    string `json:"kind"`
	Attempt int32  `json:"attempt,omitempty"`
	StartNS int64  `json:"start_unix_ns"`
	EndNS   int64  `json:"end_unix_ns"`
	DurNS   int64  `json:"dur_ns"`
	Note    string `json:"note,omitempty"`
}

func (s Span) export() jsonSpan {
	return jsonSpan{
		Trace:   s.Trace,
		Job:     s.Job,
		Key:     s.Key,
		Kind:    s.Kind.String(),
		Attempt: s.Attempt,
		StartNS: s.Start,
		EndNS:   s.End,
		DurNS:   s.End - s.Start,
		Note:    s.Note,
	}
}

// MarshalJSON renders the span in its export shape.
func (s Span) MarshalJSON() ([]byte, error) { return json.Marshal(s.export()) }

// UnmarshalJSON parses the export shape back into a Span, so flight
// recorder dumps round-trip through offline tooling.
func (s *Span) UnmarshalJSON(b []byte) error {
	var js jsonSpan
	if err := json.Unmarshal(b, &js); err != nil {
		return err
	}
	*s = Span{
		Trace:   js.Trace,
		Job:     js.Job,
		Key:     js.Key,
		Kind:    KindByName(js.Kind),
		Attempt: js.Attempt,
		Start:   js.StartNS,
		End:     js.EndNS,
		Note:    js.Note,
	}
	return nil
}

// WriteJSONL writes spans one JSON object per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s.export()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Ring is a bounded span ring: the newest cap(buf) records win, older
// ones are overwritten. Record is a mutex-guarded value copy — cheap
// enough for admission paths, allocation-free always.
type Ring struct {
	mu    sync.Mutex
	buf   []Span
	total uint64
}

// NewRing returns a ring holding the last n spans (n <= 0 disables
// recording entirely).
func NewRing(n int) *Ring {
	r := new(Ring)
	if n > 0 {
		r.buf = make([]Span, n)
	}
	return r
}

// Record stores one span (dropped when the ring is disabled).
func (r *Ring) Record(s Span) {
	if r == nil || len(r.buf) == 0 {
		return
	}
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = s
	r.total++
	r.mu.Unlock()
}

// Total returns how many spans were ever recorded (recorded-total minus
// len(Snapshot()) is the evicted count).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the retained spans oldest-first.
func (r *Ring) Snapshot() []Span {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	size := uint64(len(r.buf))
	if n > size {
		out := make([]Span, size)
		head := n % size // oldest retained record
		copied := copy(out, r.buf[head:])
		copy(out[copied:], r.buf[:head])
		return out
	}
	out := make([]Span, n)
	copy(out, r.buf[:n])
	return out
}

// Tracer is the flight recorder: a span ring for job lifecycles, an
// event ring for shed/breaker/retry service events, and the trace-ID
// source. SampleEvery controls which submissions record lifecycle spans
// (1 = all); events are always recorded — they are rare and are exactly
// what a post-incident inspection needs.
type Tracer struct {
	sampleEvery uint64
	seq         atomic.Uint64
	spans       *Ring
	events      *Ring
}

// NewTracer builds a tracer with the given ring capacities; sampleEvery
// n records the lifecycle of every n-th submission (n <= 0 disables
// lifecycle spans, event recording stays on).
func NewTracer(spanCap, eventCap, sampleEvery int) *Tracer {
	t := &Tracer{
		spans:  NewRing(spanCap),
		events: NewRing(eventCap),
	}
	if sampleEvery > 0 {
		t.sampleEvery = uint64(sampleEvery)
	}
	return t
}

// Begin allocates the next trace ID and reports whether this trace's
// lifecycle spans should be recorded.
func (t *Tracer) Begin() (trace uint64, sampled bool) {
	trace = t.seq.Add(1)
	return trace, t.sampleEvery > 0 && trace%t.sampleEvery == 0
}

// Adopt continues an externally-propagated trace (a router forwarding a
// job to a replica sends its trace ID along, so the replica's spans and
// log lines correlate with the router's). A zero external ID falls back
// to Begin; adopted traces follow the same sampling rule.
func (t *Tracer) Adopt(trace uint64) (uint64, bool) {
	if trace == 0 {
		return t.Begin()
	}
	return trace, t.sampleEvery > 0 && trace%t.sampleEvery == 0
}

// Span records a lifecycle span.
func (t *Tracer) Span(s Span) { t.spans.Record(s) }

// Event records a service event.
func (t *Tracer) Event(s Span) { t.events.Record(s) }

// Spans returns the retained lifecycle spans, oldest-first.
func (t *Tracer) Spans() []Span { return t.spans.Snapshot() }

// Events returns the retained service events, oldest-first.
func (t *Tracer) Events() []Span { return t.events.Snapshot() }

// SpanTotal and EventTotal count everything ever recorded.
func (t *Tracer) SpanTotal() uint64  { return t.spans.Total() }
func (t *Tracer) EventTotal() uint64 { return t.events.Total() }

// JobSpans returns the retained spans of one job, oldest-first. A job
// older than the ring (or an unsampled one) yields an empty timeline.
func (t *Tracer) JobSpans(job string) []Span {
	all := t.spans.Snapshot()
	out := all[:0:0]
	for _, s := range all {
		if s.Job == job {
			out = append(out, s)
		}
	}
	return out
}

// Timeline is one job's retained span sequence.
type Timeline struct {
	Job   string `json:"job"`
	Trace uint64 `json:"trace"`
	Spans []Span `json:"spans"`
}

// Timelines groups the retained spans by job and returns the last n job
// timelines in first-span order (every span a job still has in the ring
// is included, so a timeline can be partial if its head was evicted).
func (t *Tracer) Timelines(n int) []Timeline {
	all := t.spans.Snapshot()
	idx := make(map[string]int, n)
	var lines []Timeline
	for _, s := range all {
		if s.Job == "" {
			continue
		}
		i, ok := idx[s.Job]
		if !ok {
			i = len(lines)
			idx[s.Job] = i
			lines = append(lines, Timeline{Job: s.Job, Trace: s.Trace})
		}
		lines[i].Spans = append(lines[i].Spans, s)
	}
	if n > 0 && len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return lines
}

// Flight is the /debug/flight dump: the last job timelines the span
// ring retains plus the last service events, with the recorded-ever
// totals so a reader can tell how much history the rings have already
// dropped.
type Flight struct {
	SpansRecordedTotal  uint64     `json:"spans_recorded_total"`
	EventsRecordedTotal uint64     `json:"events_recorded_total"`
	Timelines           []Timeline `json:"timelines"`
	Events              []Span     `json:"events"`
}

// FlightDump assembles the flight recorder's view: the last n job
// timelines and the last n events (n <= 0 selects 32). It reads only
// ring snapshots, never a caller's lock.
func (t *Tracer) FlightDump(n int) Flight {
	if n <= 0 {
		n = 32
	}
	events := t.Events()
	if len(events) > n {
		events = events[len(events)-n:]
	}
	return Flight{
		SpansRecordedTotal:  t.SpanTotal(),
		EventsRecordedTotal: t.EventTotal(),
		Timelines:           t.Timelines(n),
		Events:              events,
	}
}
