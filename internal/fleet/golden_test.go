package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"memsched/internal/serve"
	"memsched/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden metrics pages under testdata/")

// testClock is a settable clock for Config.now: it moves only when a
// test advances it.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// hostTransport serves each request in-process from the handler its
// host names, so replica URLs are fixed strings and no socket opens. An
// unknown host is a dead replica: the dial fails.
type hostTransport map[string]http.Handler

func (ht hostTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := ht[req.URL.Host]
	if !ok {
		return nil, errors.New("connection refused")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req.Clone(req.Context()))
	return rec.Result(), nil
}

// goldenRouter drives a journaled router, without health probing,
// through every counter path in a fixed order: journal recovery,
// invalid and shed rejections, a cancel, cache hits and evictions,
// failovers off a replica that loses accepted jobs, a breaker trip and
// health demotion on a dead one, a permanent failure, join, leave and
// evict, no-replicas and draining rejections.
func goldenRouter(t *testing.T) *Router {
	t.Helper()
	clock := &testClock{t: time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)}
	rep := serve.New(serve.Config{
		Workers: 1,
		Runner: func(ctx context.Context, req serve.JobRequest) (*sim.Result, error) {
			if req.Seed == 3 {
				return nil, errors.New("boom")
			}
			clock.advance(time.Duration(req.N) * time.Millisecond)
			return okRes(req), nil
		},
	})
	t.Cleanup(func() { rep.Drain(5 * time.Second) })
	lossy := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost {
			serve.WriteJSON(w, http.StatusAccepted, map[string]string{"id": "lost-1", "state": "queued"})
			return
		}
		http.NotFound(w, req)
	})

	path := filepath.Join(t.TempDir(), "router.journal")
	pre, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	done := Canonicalize(serve.JobRequest{Workload: "matmul2d", N: 7})
	open := Canonicalize(serve.JobRequest{Workload: "matmul2d", N: 8})
	for _, err := range []error{
		pre.Accept("rjob-000001", CanonicalKey(done), 1, done, clock.now()),
		pre.Complete("rjob-000001", serve.JobDone, json.RawMessage(`{"journaled":true}`), "", clock.now()),
		pre.Accept("rjob-000002", CanonicalKey(open), 2, open, clock.now()),
		pre.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	journal, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })

	r, err := New(Config{
		Replicas:         []string{"http://rep-a", "http://rep-b"},
		MaxInFlight:      1,
		CacheEntries:     2,
		BreakerThreshold: 1,
		DisableHedge:     true,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       time.Millisecond,
		Health:           HealthConfig{FailThreshold: 1},
		Journal:          journal,
		HTTPClient:       &http.Client{Transport: hostTransport{"rep-a": rep.Handler(), "rep-b": lossy}},
		now:              clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	run := func(req serve.JobRequest) {
		t.Helper()
		st, err := r.Submit(req)
		if err != nil {
			t.Fatalf("Submit(%+v): %v", req, err)
		}
		waitRouterDone(t, r, st.ID)
	}
	reject := func(req serve.JobRequest) {
		t.Helper()
		if _, err := r.Submit(req); err == nil {
			t.Fatalf("Submit(%+v) accepted, want a rejection", req)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	reject(serve.JobRequest{Workload: "nope", N: 2})
	reject(serve.JobRequest{Workload: "matmul2d", N: 2}) // the replayed job holds the one slot
	_, err = r.Cancel("rjob-000002")
	must(err)
	run(serve.JobRequest{Workload: "matmul2d", N: 7})
	must(r.AddReplica("http://rep-c"))
	for n := 2; n <= 6; n++ {
		run(serve.JobRequest{Workload: "matmul2d", N: n})
	}
	run(serve.JobRequest{Workload: "matmul2d", N: 2, Seed: 3})
	run(serve.JobRequest{Workload: "matmul2d", N: 6})
	must(r.RemoveReplica("http://rep-c", true))
	must(r.AddReplica("http://rep-d"))
	must(r.removeReplica("http://rep-d", true, true))
	r.health.ReportFailure("http://rep-a", "forced down")
	r.health.ReportFailure("http://rep-b", "forced down")
	reject(serve.JobRequest{Workload: "matmul2d", N: 9})
	must(r.Drain(5 * time.Second))
	reject(serve.JobRequest{Workload: "matmul2d", N: 9})
	clock.advance(42 * time.Second)
	return r
}

// TestGoldenMetricsPages pins both /metrics renderings of a router in a
// fixed state: the Prometheus page as its sorted lines (family order
// may change; names, HELP, TYPE, labels and values may not) and the
// JSON snapshot as a decoded object, the journal's temporary path
// masked.
func TestGoldenMetricsPages(t *testing.T) {
	h := goldenRouter(t).Handler()
	get := func(url string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d %s", url, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	checkGoldenPage(t, "testdata/metrics.prom.golden", get("/metrics"))
	checkGoldenJSON(t, "testdata/metrics.json.golden", get("/metrics?format=json"), func(m map[string]any) {
		if j, ok := m["journal"].(map[string]any); ok {
			j["path"] = "router.journal"
		}
	})
}

// buildInfoLabels matches the build-identity labels, which name the
// toolchain running the test rather than the state under test.
var buildInfoLabels = regexp.MustCompile(`^memsched_build_info\{.*\}`)

// sortedPage returns the page's lines, build-identity labels masked,
// in sorted order.
func sortedPage(page string) []string {
	lines := strings.Split(strings.TrimSuffix(page, "\n"), "\n")
	for i, l := range lines {
		lines[i] = buildInfoLabels.ReplaceAllString(l, "memsched_build_info{…}")
	}
	sort.Strings(lines)
	return lines
}

func checkGoldenPage(t *testing.T, path, page string) {
	t.Helper()
	got := sortedPage(page)
	if *update {
		writeGolden(t, path, strings.Join(got, "\n")+"\n")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := sortedPage(string(raw)); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: page differs from the golden; got:\n%s", path, strings.Join(got, "\n"))
	}
}

// checkGoldenJSON compares a JSON page decoded as map[string]any; mask
// blanks fields that vary between runs before the compare.
func checkGoldenJSON(t *testing.T, path, page string, mask func(map[string]any)) {
	t.Helper()
	var got, want map[string]any
	if err := json.Unmarshal([]byte(page), &got); err != nil {
		t.Fatalf("decode %s page: %v", path, err)
	}
	mask(got)
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		writeGolden(t, path, string(b)+"\n")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: JSON snapshot differs from the golden; got:\n%s", path, b)
	}
}

func writeGolden(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
