package obs

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPromWriterBasic(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Meta("x_jobs_total", "counter", "Jobs.")
	p.Sample("x_jobs_total", nil, 42)
	p.Meta("x_depth", "gauge", "Queue \\ depth\nnow.")
	p.Sample("x_depth", []Label{{"q", `a"b\c`}, {"w", "plain"}}, 7)
	p.Sample("x_depth", []Label{{"q", "inf"}}, math.Inf(1))
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP x_jobs_total Jobs.\n# TYPE x_jobs_total counter\nx_jobs_total 42\n",
		"# HELP x_depth Queue \\\\ depth\\nnow.\n# TYPE x_depth gauge\n",
		`x_depth{q="a\"b\\c",w="plain"} 7` + "\n",
		`x_depth{q="inf"} +Inf` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPromWriterHistogram(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond) // bucket 4 (0.8ms, 1.6ms]
	h.Observe(time.Millisecond)
	h.Observe(HistMinBucket << HistBuckets) // overflow
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Meta("x_wait_seconds", "histogram", "Wait.")
	p.Histogram("x_wait_seconds", []Label{{"workload", "matmul2d"}}, h.Snapshot())
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Cumulative counts: buckets below 4 are 0, 4..last finite are 2,
	// +Inf is 3; _count matches the +Inf bucket.
	for _, want := range []string{
		`x_wait_seconds_bucket{workload="matmul2d",le="0.0008"} 0`,
		`x_wait_seconds_bucket{workload="matmul2d",le="0.0016"} 2`,
		`x_wait_seconds_bucket{workload="matmul2d",le="+Inf"} 3`,
		`x_wait_seconds_count{workload="matmul2d"} 3`,
		`x_wait_seconds_sum{workload="matmul2d"} `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// le bounds must be strictly ascending in emitted order.
	var prev float64 = -1
	for _, line := range strings.Split(out, "\n") {
		i := strings.Index(line, `le="`)
		if i < 0 {
			continue
		}
		v := line[i+4:]
		v = v[:strings.IndexByte(v, '"')]
		var f float64
		if v == "+Inf" {
			f = math.Inf(1)
		} else {
			var err error
			f, err = strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", v, err)
			}
		}
		if f <= prev {
			t.Fatalf("le bounds not ascending: %g after %g", f, prev)
		}
		prev = f
	}
}

func TestPromWriterFields(t *testing.T) {
	type sub struct {
		Hits int `prom:"hits_total counter Lookups that hit."`
		Skip int
	}
	type opt struct {
		Replayed int `prom:"replayed_total counter Jobs replayed."`
	}
	type counters struct {
		RejA int64 `prom:"rejected_total{reason=a} counter Refusals, by reason."`
		RejB int64 `prom:"rejected_total{reason=b} counter"`
	}
	type snap struct {
		Up    float64 `prom:"up_seconds gauge Uptime."`
		Drain bool    `prom:"draining gauge Draining flag."`
		Keys  []string
		counters
		Cache   *sub
		Missing *opt
	}
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Fields("x_", snap{Up: 1.5, Drain: true, counters: counters{3, 4}, Cache: &sub{Hits: 7}})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_up_seconds Uptime.
# TYPE x_up_seconds gauge
x_up_seconds 1.5
# HELP x_draining Draining flag.
# TYPE x_draining gauge
x_draining 1
# HELP x_rejected_total Refusals, by reason.
# TYPE x_rejected_total counter
x_rejected_total{reason="a"} 3
x_rejected_total{reason="b"} 4
# HELP x_hits_total Lookups that hit.
# TYPE x_hits_total counter
x_hits_total 7
`
	if got := buf.String(); got != want {
		t.Fatalf("Fields rendered:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromWriterFieldsRejectsBadTags(t *testing.T) {
	for name, v := range map[string]any{
		"unknown type": struct {
			X int `prom:"x histogram Nope."`
		}{},
		"string field": struct {
			X string `prom:"x gauge Nope."`
		}{},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			NewPromWriter(io.Discard).Fields("", v)
		})
	}
}
