// Package prom renders metrics in the Prometheus text exposition format
// (version 0.0.4), the lingua franca every scraper, agent, and dashboard
// already speaks. The daemon's expvar JSON is fine for a human with curl;
// fleet monitoring wants `GET /metrics` in this format. The writer is
// deliberately tiny — three metric kinds, no client library, no
// registries — because the daemon's metric set is fixed at compile time
// and the container must not grow dependencies.
package prom

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Writer accumulates one exposition page. Families must be written
// complete (HELP, TYPE, then samples), which the three metric methods
// each do in one call.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter starts an exposition page on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Err reports the first write error, if any.
func (p *Writer) Err() error { return p.err }

func (p *Writer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *Writer) header(name, help, kind string) {
	p.printf("# HELP %s %s\n", name, escapeHelp(help))
	p.printf("# TYPE %s %s\n", name, kind)
}

// Counter writes one counter family with a single unlabeled sample.
func (p *Writer) Counter(name, help string, value float64) {
	p.header(name, help, "counter")
	p.printf("%s %s\n", name, formatValue(value))
}

// Gauge writes one gauge family with a single unlabeled sample.
func (p *Writer) Gauge(name, help string, value float64) {
	p.header(name, help, "gauge")
	p.printf("%s %s\n", name, formatValue(value))
}

// GaugeVec writes one gauge family with one sample per label value, in
// sorted label order so the page is deterministic.
func (p *Writer) GaugeVec(name, help, label string, values map[string]float64) {
	p.vec(name, help, "gauge", label, values)
}

// CounterVec writes one counter family with one sample per label value.
func (p *Writer) CounterVec(name, help, label string, values map[string]float64) {
	p.vec(name, help, "counter", label, values)
}

func (p *Writer) vec(name, help, typ, label string, values map[string]float64) {
	p.header(name, help, typ)
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.printf("%s{%s=\"%s\"} %s\n", name, label, escapeLabel(k), formatValue(values[k]))
	}
}

// Histogram writes one histogram family from per-bucket (non-cumulative)
// counts. bounds are the buckets' inclusive upper bounds; counts has
// len(bounds)+1 entries, the last being the overflow beyond the final
// bound. The exposition's _bucket samples are cumulative with a closing
// le="+Inf" per the format, plus _sum and _count.
func (p *Writer) Histogram(name, help string, bounds []float64, counts []int64, sum float64) {
	p.header(name, help, "histogram")
	cum := int64(0)
	for i, b := range bounds {
		cum += counts[i]
		p.printf("%s_bucket{le=%q} %d\n", name, formatValue(b), cum)
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	p.printf("%s_sum %s\n", name, formatValue(sum))
	p.printf("%s_count %d\n", name, cum)
}

// formatValue renders a sample value the way the format expects: plain
// decimal, no exponent for the common cases, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	s := fmt.Sprintf("%g", v)
	return s
}

// escapeHelp escapes backslashes and newlines, the two characters HELP
// text cannot contain raw.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format: exactly
// backslash, double-quote, and newline — and nothing else. Go's %q is
// close but wrong here: it also escapes tabs, control bytes, and
// non-ASCII, which a format-conformant scraper would read back
// literally (the format's only escapes inside label quotes are \\, \",
// and \n).
func escapeLabel(s string) string {
	// Fast path: most label values (pass names, chip names) need nothing.
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}
