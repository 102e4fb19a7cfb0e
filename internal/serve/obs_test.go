package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memsched/internal/obs"
	"memsched/internal/sim"
)

// obsClock is the deterministic clock injected through Config.now.
type obsClock struct {
	mu sync.Mutex
	t  time.Time
}

func newObsClock() *obsClock {
	return &obsClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *obsClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *obsClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestFakeClockHistogramQuantiles drives a single-worker server with a
// fake clock so every queue wait, attempt runtime and sojourn is a
// known exact value, then requires the scraped /metrics exposition and
// its quantiles to match a histogram built from those expected values
// — not approximately: identically.
func TestFakeClockHistogramQuantiles(t *testing.T) {
	clock := newObsClock()
	gate := make(chan struct{})
	s := New(Config{
		Workers:  1,
		QueueCap: 64,
		now:      clock.Now,
		// Each job's "runtime" is req.N milliseconds of fake time.
		Runner: func(ctx context.Context, req JobRequest) (*sim.Result, error) {
			<-gate // hold the worker until every job is queued at t0
			clock.Advance(time.Duration(req.N) * time.Millisecond)
			return okResult(req), nil
		},
	})
	t.Cleanup(func() { s.Drain(5 * time.Second) })

	durationsMS := []int{1, 2, 3, 5, 8, 13, 40, 40, 120, 250}
	ids := make([]string, len(durationsMS))
	for i, n := range durationsMS {
		st := mustSubmit(t, s, JobRequest{Workload: "matmul2d", N: n})
		ids[i] = st.ID
	}
	close(gate)
	for _, id := range ids {
		if st := waitDone(t, s, id); st.State != JobDone {
			t.Fatalf("job %s = %+v", id, st)
		}
	}

	// Expected exact observations: all jobs are admitted at t0 and the
	// single worker runs them in order, so job k waits the sum of the
	// previous runtimes and sojourns through its own.
	var wantQueue, wantAttempt, wantSojourn obs.Histogram
	elapsed := time.Duration(0)
	for _, n := range durationsMS {
		d := time.Duration(n) * time.Millisecond
		wantQueue.Observe(elapsed)
		wantAttempt.Observe(d)
		elapsed += d
		wantSojourn.Observe(elapsed)
	}

	gotQueue, gotAttempt, gotSojourn := s.LatencySnapshots()
	for _, c := range []struct {
		name      string
		got, want obs.HistSnapshot
	}{
		{"queue_wait", gotQueue, wantQueue.Snapshot()},
		{"attempt_runtime", gotAttempt, wantAttempt.Snapshot()},
		{"sojourn", gotSojourn, wantSojourn.Snapshot()},
	} {
		if c.got != c.want {
			t.Errorf("%s snapshot = %+v, want %+v", c.name, c.got, c.want)
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if g, w := c.got.Quantile(q), c.want.Quantile(q); g != w {
				t.Errorf("%s Quantile(%g) = %g, want %g", c.name, q, g, w)
			}
		}
	}

	// The scraped exposition must embed the exact same histogram: render
	// the expected snapshot through the same writer and require the
	// sojourn block to appear verbatim in the page.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type = %q", ct)
	}
	var want bytes.Buffer
	pw := obs.NewPromWriter(&want)
	pw.Meta("memschedd_sojourn_seconds", "histogram", "End-to-end time from admission to done/failed.")
	pw.Histogram("memschedd_sojourn_seconds", nil, wantSojourn.Snapshot())
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(page, want.Bytes()) {
		t.Fatalf("exposition missing expected sojourn histogram block:\nwant:\n%s\npage:\n%s", want.String(), page)
	}
	// The per-key split carries the same totals under labels.
	if !bytes.Contains(page, []byte(`memschedd_sojourn_seconds_by_key_count{workload="matmul2d",strategy="DARTS+LUF"} 10`)) {
		t.Fatalf("per-key sojourn count missing:\n%s", page)
	}
}

// TestSubmitNoNewAllocs pins the Submit hot path: with tracing at its
// default sampling the path must allocate exactly as much as with
// tracing disabled — instrumentation rides on preallocated rings and
// atomics — and stay within a fixed absolute budget.
func TestSubmitNoNewAllocs(t *testing.T) {
	// AllocsPerRun counts mallocs process-wide, so each server's one
	// worker must already be parked in its Runner before any measurement
	// starts; otherwise its first attempt allocates inside the window.
	mk := func(sample int) (*Server, chan struct{}) {
		release := make(chan struct{})
		started := make(chan struct{}, 1)
		s := New(Config{
			Workers:  1,
			QueueCap: 1 << 14,
			Runner: func(ctx context.Context, req JobRequest) (*sim.Result, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-release:
					return okResult(req), nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
			TraceSample: sample,
		})
		if _, err := s.Submit(validReq()); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		<-started
		return s, release
	}
	measure := func(s *Server) float64 {
		req := validReq()
		return testing.AllocsPerRun(200, func() {
			if _, err := s.Submit(req); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		})
	}
	sOff, releaseOff := mk(-1)
	sOn, releaseOn := mk(0) // 0 applies the default: sample every job
	t.Cleanup(func() {
		close(releaseOff)
		close(releaseOn)
		sOff.Drain(10 * time.Second)
		sOn.Drain(10 * time.Second)
	})
	base := measure(sOff)
	traced := measure(sOn)
	t.Logf("Submit allocs/call: %.2f untraced, %.2f traced", base, traced)
	if traced > base {
		t.Fatalf("default tracing adds allocations to Submit: %.2f traced vs %.2f untraced", traced, base)
	}
	// Absolute guard so the whole path can't quietly bloat either. The
	// pre-observability path already costs ~33 allocations (request
	// validation dominates); the budget pins that, with a little slack
	// for amortized map growth.
	if traced > 40 {
		t.Fatalf("Submit allocates %.2f times per call, budget 40", traced)
	}
}

// TestJobIDFormat pins jobID to the "job-%06d" IDs clients already hold.
func TestJobIDFormat(t *testing.T) {
	for _, n := range []int64{0, 1, 9, 10, 99999, 100000, 999999, 1000000, 123456789} {
		if got, want := jobID(n), fmt.Sprintf("job-%06d", n); got != want {
			t.Errorf("jobID(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestScrapeUnderLoadAndDrain is the snapshot-then-format contract:
// /metrics (both formats) and /debug/flight keep answering while
// submissions hammer the server and a Drain runs concurrently, because
// no exporter holds the Submit mutex while rendering.
func TestScrapeUnderLoadAndDrain(t *testing.T) {
	s := New(Config{
		Workers:  2,
		QueueCap: 8,
		Runner: func(ctx context.Context, req JobRequest) (*sim.Result, error) {
			return okResult(req), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Sustained submission load (sheds are expected and fine).
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/jobs", "application/json",
					strings.NewReader(`{"workload":"matmul2d","n":2}`))
				if err != nil {
					return // server shutting down
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	scrape := func(path, wantSub string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), wantSub) {
			t.Errorf("GET %s missing %q", path, wantSub)
		}
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	drained := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		s.Drain(10 * time.Second)
		close(drained)
	}()
	for time.Now().Before(deadline) {
		scrape("/metrics", "memschedd_jobs_submitted_total")
		scrape("/metrics?format=json", `"jobs_submitted"`)
		scrape("/debug/flight", `"timelines"`)
	}
	close(stop)
	wg.Wait()
	select {
	case <-drained:
	case <-time.After(15 * time.Second):
		t.Fatal("drain never finished while scraping")
	}
	// Still scrapeable after the drain.
	scrape("/metrics", "memschedd_draining 1")
}

// TestFlightRecorder walks a shed, a breaker trip and a breaker
// rejection into the event ring, then inspects /debug/flight and
// /debug/jobs/{id}/trace the way a post-incident investigation would.
func TestFlightRecorder(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{
		Workers:          1,
		QueueCap:         1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		Runner: func(ctx context.Context, req JobRequest) (*sim.Result, error) {
			if req.Workload == "cholesky" {
				return nil, errors.New("deterministic failure")
			}
			select {
			case <-release:
				return okResult(req), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	t.Cleanup(func() { s.Drain(10 * time.Second) })

	// Fill the worker and the queue, then shed one submission.
	first := mustSubmit(t, s, JobRequest{Workload: "matmul2d", N: 2})
	waitState(t, s, first.ID, JobRunning)
	second := mustSubmit(t, s, JobRequest{Workload: "matmul2d", N: 2})
	_, err := s.Submit(JobRequest{Workload: "matmul2d", N: 2})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Status != 429 {
		t.Fatalf("expected shed, got %v", err)
	}
	close(release)
	// Let the queued job drain so the single-slot queue is free again
	// before the breaker phase submits.
	if st := waitDone(t, s, second.ID); st.State != JobDone {
		t.Fatalf("second job = %+v", st)
	}

	// Trip the cholesky breaker (threshold 1), then bounce off it.
	bad := mustSubmit(t, s, JobRequest{Workload: "cholesky", N: 4})
	if st := waitDone(t, s, bad.ID); st.State != JobFailed {
		t.Fatalf("breaker-bait job = %+v", st)
	}
	if _, err := s.Submit(JobRequest{Workload: "cholesky", N: 4}); !errors.As(err, &rej) || rej.Status != 503 {
		t.Fatalf("expected breaker rejection, got %v", err)
	}
	if st := waitDone(t, s, first.ID); st.State != JobDone {
		t.Fatalf("first job = %+v", st)
	}

	fl := s.FlightDump(8)
	kinds := map[obs.SpanKind]int{}
	for _, e := range fl.Events {
		kinds[e.Kind]++
	}
	if kinds[obs.KindShed] != 1 || kinds[obs.KindBreakerTrip] != 1 || kinds[obs.KindBreakerReject] != 1 {
		t.Fatalf("flight events = %+v", fl.Events)
	}
	var firstLine *obs.Timeline
	for i := range fl.Timelines {
		if fl.Timelines[i].Job == first.ID {
			firstLine = &fl.Timelines[i]
		}
	}
	if firstLine == nil {
		t.Fatalf("no timeline for %s in %+v", first.ID, fl.Timelines)
	}
	wantKinds := []obs.SpanKind{obs.KindAdmit, obs.KindQueue, obs.KindAttempt, obs.KindDone}
	if len(firstLine.Spans) != len(wantKinds) {
		t.Fatalf("timeline spans = %+v", firstLine.Spans)
	}
	for i, k := range wantKinds {
		sp := firstLine.Spans[i]
		if sp.Kind != k || sp.Trace != first.Trace || sp.Job != first.ID {
			t.Fatalf("span %d = %+v, want kind %v trace %d", i, sp, k, first.Trace)
		}
	}

	// HTTP faces of the same data.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var jt JobTrace
	getJSON(t, ts.URL+"/debug/jobs/"+first.ID+"/trace", &jt)
	if jt.Status.ID != first.ID || len(jt.Spans) != len(wantKinds) {
		t.Fatalf("job trace = %+v", jt)
	}
	resp, err := http.Get(ts.URL + "/debug/jobs/job-999999/trace")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	var fl2 Flight
	getJSON(t, ts.URL+"/debug/flight?n=2", &fl2)
	if len(fl2.Events) != 2 || len(fl2.Timelines) > 2 {
		t.Fatalf("flight?n=2 = %+v", fl2)
	}

	// The JSONL span export parses line by line.
	resp, err = http.Get(ts.URL + "/debug/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if m["kind"] == "" || m["trace"] == nil {
			t.Fatalf("span line missing fields: %v", m)
		}
		lines++
	}
	if lines < len(wantKinds) {
		t.Fatalf("only %d JSONL lines", lines)
	}
}

// TestRetryEventsRecorded puts a transient failure through the retry
// path and checks the flight recorder saw the retry and backoff.
func TestRetryEventsRecorded(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	s := New(Config{
		Workers:     1,
		MaxRetries:  2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Runner: func(ctx context.Context, req JobRequest) (*sim.Result, error) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls == 1 {
				return nil, MarkTransient(errors.New("flaky backend"))
			}
			return okResult(req), nil
		},
	})
	t.Cleanup(func() { s.Drain(10 * time.Second) })
	st := mustSubmit(t, s, validReq())
	if got := waitDone(t, s, st.ID); got.State != JobDone || got.Attempts != 2 {
		t.Fatalf("job = %+v", got)
	}
	var retry *obs.Span
	for _, e := range s.FlightDump(8).Events {
		if e.Kind == obs.KindRetry {
			e := e
			retry = &e
		}
	}
	if retry == nil || retry.Job != st.ID || retry.Attempt != 1 || !strings.Contains(retry.Note, "flaky") {
		t.Fatalf("retry event = %+v", retry)
	}
	spans := s.JobTraceDumpMust(t, st.ID)
	var kinds []obs.SpanKind
	for _, sp := range spans {
		kinds = append(kinds, sp.Kind)
	}
	want := []obs.SpanKind{obs.KindAdmit, obs.KindQueue, obs.KindAttempt, obs.KindBackoff, obs.KindAttempt, obs.KindDone}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("span kinds = %v, want %v", kinds, want)
	}
}

// JobTraceDumpMust is a test helper fetching a job's spans.
func (s *Server) JobTraceDumpMust(t *testing.T, id string) []obs.Span {
	t.Helper()
	jt, err := s.JobTraceDump(id)
	if err != nil {
		t.Fatalf("JobTraceDump(%s): %v", id, err)
	}
	return jt.Spans
}

func waitState(t *testing.T, s *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
