package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"

	"memsched/internal/buildinfo"
)

// PromContentType is the Prometheus text exposition content type served
// by /metrics.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one Prometheus label pair.
type Label struct {
	Name, Value string
}

// PromWriter renders the Prometheus text exposition format (0.0.4).
// Errors stick: callers write the whole page and check Flush once.
// Meta must precede the first Sample of its family — that ordering is
// what the CI exposition checker (cmd/promcheck) enforces on the
// scraped output.
type PromWriter struct {
	w   *bufio.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: bufio.NewWriter(w)}
}

// BuildInfo writes the build-identity family. The metric name is
// deliberately unprefixed ("memsched_", not "memschedd_"): the same
// family identifies every binary of the project, with the daemon
// distinguished by its job.
func (p *PromWriter) BuildInfo() {
	version, goVersion := buildinfo.Resolve()
	p.Meta("memsched_build_info", "gauge", "Build identity of the running binary; always 1.")
	p.Sample("memsched_build_info", []Label{
		{Name: "version", Value: version},
		{Name: "goversion", Value: goVersion},
	}, 1)
}

// Meta writes the # HELP and # TYPE header of one metric family.
// typ is counter, gauge, histogram, summary or untyped.
func (p *PromWriter) Meta(name, typ, help string) {
	if p.err != nil {
		return
	}
	_, p.err = p.w.WriteString("# HELP " + name + " " + escapeHelp(help) + "\n# TYPE " + name + " " + typ + "\n")
}

// Sample writes one sample line.
func (p *PromWriter) Sample(name string, labels []Label, v float64) {
	if p.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	writeLabels(&sb, labels, "", 0)
	sb.WriteByte(' ')
	sb.WriteString(FormatPromValue(v))
	sb.WriteByte('\n')
	_, p.err = p.w.WriteString(sb.String())
}

// Histogram writes the _bucket/_sum/_count sample set of one histogram
// snapshot under name with the given extra labels. Meta(name,
// "histogram", ...) must have been written once for the family.
func (p *PromWriter) Histogram(name string, labels []Label, s HistSnapshot) {
	if p.err != nil {
		return
	}
	var sb strings.Builder
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		sb.WriteString(name)
		sb.WriteString("_bucket")
		writeLabels(&sb, labels, "le", BucketBound(i))
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatUint(cum, 10))
		sb.WriteByte('\n')
	}
	sb.WriteString(name)
	sb.WriteString("_sum")
	writeLabels(&sb, labels, "", 0)
	sb.WriteByte(' ')
	sb.WriteString(FormatPromValue(s.SumSeconds()))
	sb.WriteByte('\n')
	sb.WriteString(name)
	sb.WriteString("_count")
	writeLabels(&sb, labels, "", 0)
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatUint(s.Count, 10))
	sb.WriteByte('\n')
	_, p.err = p.w.WriteString(sb.String())
}

// Flush flushes the buffered page and returns the first error hit.
func (p *PromWriter) Flush() error {
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

// writeLabels renders {a="b",...}, appending an le label when leName is
// non-empty. No braces are written when there are no labels at all.
func writeLabels(sb *strings.Builder, labels []Label, leName string, le float64) {
	if len(labels) == 0 && leName == "" {
		return
	}
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	if leName != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(leName)
		sb.WriteString(`="`)
		sb.WriteString(FormatPromValue(le))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

// FormatPromValue renders a float the way the exposition format expects:
// shortest round-trip decimal, +Inf/-Inf/NaN spelled out.
func FormatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format
// (backslash, double quote, newline).
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP text (backslash and newline only; quotes are
// legal there).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
