package serve

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
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

	"memsched/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden metrics pages under testdata/")

// testClock is a settable clock for Config.now: it moves only when a
// test advances it, so every latency and uptime the pages report is a
// fixed number.
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

// goldenServer drives a one-worker server through every counter path —
// success, transient retry, confined panic, permanent failure, breaker
// trip and reject, invalid, shed, cancel and drain — in a fixed order,
// with a runner that moves the clock by n milliseconds per attempt.
func goldenServer(t *testing.T) *Server {
	t.Helper()
	clock := &testClock{t: time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)}
	started := make(chan struct{})
	release := make(chan struct{})
	var flakyCalls int
	s := New(Config{
		Workers:          1,
		QueueCap:         1,
		MaxRetries:       2,
		BaseBackoff:      time.Microsecond,
		MaxBackoff:       time.Microsecond,
		BreakerThreshold: 2,
		now:              clock.now,
		Runner: func(ctx context.Context, req JobRequest) (*sim.Result, error) {
			switch req.Seed {
			case 2:
				if flakyCalls++; flakyCalls == 1 {
					clock.advance(time.Millisecond)
					return nil, MarkTransient(errors.New("flaky"))
				}
			case 3:
				return nil, errors.New("boom")
			case 4:
				panic("kaboom")
			case 5:
				close(started)
				<-release
			}
			clock.advance(time.Duration(req.N) * time.Millisecond)
			res := okResult(req)
			res.Events = int64(100 * req.N)
			return res, nil
		},
	})
	t.Cleanup(func() { s.Drain(5 * time.Second) })

	run := func(req JobRequest) {
		t.Helper()
		waitDone(t, s, mustSubmit(t, s, req).ID)
	}
	reject := func(req JobRequest) {
		t.Helper()
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("Submit(%+v) accepted, want a rejection", req)
		}
	}
	run(JobRequest{Workload: "matmul2d", N: 2})
	run(JobRequest{Workload: "matmul2d", N: 3, Seed: 2})
	run(JobRequest{Workload: "matmul2d", N: 2, Strategy: "DMDAR", Seed: 4})
	run(JobRequest{Workload: "matmul2d", N: 2, Strategy: "DMDAR", Seed: 3})
	reject(JobRequest{Workload: "matmul2d", N: 2, Strategy: "DMDAR"})
	reject(JobRequest{Workload: "nope", N: 2})

	blocker := mustSubmit(t, s, JobRequest{Workload: "matmul2d", N: 4, Seed: 5})
	<-started
	queued := mustSubmit(t, s, JobRequest{Workload: "matmul2d", N: 5})
	reject(JobRequest{Workload: "matmul2d", N: 6})
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitDone(t, s, blocker.ID)

	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	reject(JobRequest{Workload: "matmul2d", N: 2})
	clock.advance(90 * time.Second)
	return s
}

// TestGoldenMetricsPages pins both /metrics renderings of a server in a
// fixed state: the Prometheus page as its sorted lines (family order
// may change; names, HELP, TYPE, labels and values may not) and the
// JSON snapshot as a decoded object.
func TestGoldenMetricsPages(t *testing.T) {
	h := goldenServer(t).Handler()
	get := func(url string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d %s", url, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	checkGoldenPage(t, "testdata/metrics.prom.golden", get("/metrics"))
	checkGoldenJSON(t, "testdata/metrics.json.golden", get("/metrics?format=json"), nil)
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
	want := sortedPage(string(raw))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: page differs from the golden:\n%s", path, lineDiff(want, got))
	}
}

// checkGoldenJSON compares a JSON page decoded as map[string]any; mask,
// when set, blanks fields that vary between runs before the compare.
func checkGoldenJSON(t *testing.T, path, page string, mask func(map[string]any)) {
	t.Helper()
	var got map[string]any
	if err := json.Unmarshal([]byte(page), &got); err != nil {
		t.Fatalf("decode %s page: %v", path, err)
	}
	if mask != nil {
		mask(got)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		writeGolden(t, path, string(b)+"\n")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("%s: JSON snapshot differs from the golden; got:\n%s", path, g)
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

// lineDiff lists the lines only one of two sorted slices holds.
func lineDiff(want, got []string) string {
	var sb strings.Builder
	i, j := 0, 0
	for i < len(want) || j < len(got) {
		switch {
		case j == len(got) || (i < len(want) && want[i] < got[j]):
			sb.WriteString("- " + want[i] + "\n")
			i++
		case i == len(want) || got[j] < want[i]:
			sb.WriteString("+ " + got[j] + "\n")
			j++
		default:
			i++
			j++
		}
	}
	return sb.String()
}
