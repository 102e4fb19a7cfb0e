package main

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memsched/internal/fleet"
	"memsched/internal/serve"
)

func checkString(t *testing.T, text string) []string {
	t.Helper()
	problems, err := Check(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return problems
}

func TestCheckAcceptsWellFormed(t *testing.T) {
	text := `# HELP demo_jobs_total Jobs handled.
# TYPE demo_jobs_total counter
demo_jobs_total 41
# TYPE demo_queue_depth gauge
demo_queue_depth 3
# HELP demo_latency_seconds Latency.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{le="0.1"} 2
demo_latency_seconds_bucket{le="1"} 5
demo_latency_seconds_bucket{le="+Inf"} 6
demo_latency_seconds_sum 3.5
demo_latency_seconds_count 6
# TYPE demo_by_key histogram
demo_by_key_bucket{workload="m",le="0.5"} 1
demo_by_key_bucket{workload="m",le="+Inf"} 1
demo_by_key_sum{workload="m"} 0.2
demo_by_key_count{workload="m"} 1
`
	if problems := checkString(t, text); len(problems) != 0 {
		t.Fatalf("well-formed exposition rejected: %v", problems)
	}
}

func TestCheckCatchesProblems(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"sample before type", "x_total 1\n", "before any TYPE"},
		{"double type", "# TYPE x counter\n# TYPE x counter\nx 1\n", "second TYPE"},
		{"help after samples", "# TYPE x counter\nx 1\n# HELP x late\n", "after its samples"},
		{"negative counter", "# TYPE x counter\nx -4\n", "negative or NaN"},
		{"duplicate sample", "# TYPE x gauge\nx 1\nx 2\n", "duplicate sample"},
		{"bad name", "# TYPE x gauge\n2x 1\n", "invalid metric name"},
		{"bad label", "# TYPE x gauge\nx{9l=\"v\"} 1\n", "invalid label name"},
		{"unterminated label", "# TYPE x gauge\nx{l=\"v} 1\n", "unterminated"},
		{"no value", "# TYPE x gauge\nx\n", "no value"},
		{"le not ascending", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n", "not ascending"},
		{"not cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n", "not cumulative"},
		{"missing inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "+Inf"},
		{"missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "missing _sum"},
		{"missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n", "missing _count"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n", "_count 2 != +Inf bucket 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			problems := checkString(t, c.text)
			for _, p := range problems {
				if strings.Contains(p, c.want) {
					return
				}
			}
			t.Fatalf("want a problem containing %q, got %v", c.want, problems)
		})
	}
}

// TestCheckAcceptsServeExposition closes the loop: the live exporter's
// output must pass the independent checker, including after traffic
// that populates histograms, labeled series and breaker gauges.
func TestCheckAcceptsServeExposition(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	defer s.Drain(0)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(serve.JobRequest{Workload: "matmul2d", N: 2}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// Invalid submissions populate the rejected counter too.
	s.Submit(serve.JobRequest{Workload: "nope", N: 2})
	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if problems, err := Check(strings.NewReader(sb.String())); err != nil || len(problems) != 0 {
		t.Fatalf("serve exposition fails promcheck: %v %v\n%s", problems, err, sb.String())
	}
	// Sanity: the exposition actually carried histogram content.
	if !strings.Contains(sb.String(), "memschedd_sojourn_seconds_bucket") {
		t.Fatalf("exposition suspiciously empty:\n%s", sb.String())
	}
}

// TestCheckAcceptsRouterExposition is the router's counterpart: a
// journaled router that replayed a job and routed two renders every
// family, the journal and recovery ones included.
func TestCheckAcceptsRouterExposition(t *testing.T) {
	rep := serve.New(serve.Config{Workers: 2})
	defer rep.Drain(0)
	ts := httptest.NewServer(rep.Handler())
	defer ts.Close()

	path := filepath.Join(t.TempDir(), "router.journal")
	pre, err := fleet.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed := fleet.Canonicalize(serve.JobRequest{Workload: "matmul2d", N: 3})
	if err := pre.Accept("rjob-000001", fleet.CanonicalKey(replayed), 1, replayed, time.Now()); err != nil {
		t.Fatal(err)
	}
	pre.Close()
	journal, err := fleet.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	r, err := fleet.New(fleet.Config{Replicas: []string{ts.URL}, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		st, err := r.Submit(serve.JobRequest{Workload: "matmul2d", N: 2})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if st, err = r.Wait(ctx, st.ID); err != nil || st.State != serve.JobDone {
			t.Fatalf("job %s: state %s, err %v", st.ID, st.State, err)
		}
	}
	r.Submit(serve.JobRequest{Workload: "nope", N: 2})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if problems, err := Check(strings.NewReader(sb.String())); err != nil || len(problems) != 0 {
		t.Fatalf("router exposition fails promcheck: %v %v\n%s", problems, err, sb.String())
	}
	for _, family := range []string{
		"memrouter_journal_replayed_total 1",
		"memrouter_cache_served_total",
		"memrouter_sojourn_seconds_bucket",
		"memrouter_replica_state{",
	} {
		if !strings.Contains(sb.String(), family) {
			t.Errorf("exposition lacks %q:\n%s", family, sb.String())
		}
	}
}
