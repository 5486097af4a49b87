package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Labels is an ordered set of label key/value pairs attached to a
// metric row.
type Labels [][2]string

// L is shorthand for building a label set: obs.L("stage", "execute",
// "priority", "high"). It panics on an odd number of arguments.
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("obs: L takes key/value pairs")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, [2]string{kv[i], kv[i+1]})
	}
	return ls
}

func (ls Labels) render() string {
	if len(ls) == 0 {
		return ""
	}
	sorted := append(Labels(nil), ls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	parts := make([]string, len(sorted))
	for i, l := range sorted {
		parts[i] = fmt.Sprintf("%s=%q", l[0], l[1])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metricRow struct {
	name   string
	labels string
	kind   metricKind
	value  float64
	hist   *Histogram
}

// Registry accumulates counters, gauges, and histograms and renders
// them as a sorted text exposition. It is a build-then-render
// structure: the serving layer fills a fresh registry from its locked
// stats on each Snapshot call, so the registry itself needs no
// locking discipline beyond its own mutex-free single-threaded use.
type Registry struct {
	rows map[string]*metricRow
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{rows: make(map[string]*metricRow)}
}

func (r *Registry) row(name string, labels Labels, kind metricKind) *metricRow {
	key := name + labels.render()
	row, ok := r.rows[key]
	if !ok {
		row = &metricRow{name: name, labels: labels.render(), kind: kind}
		r.rows[key] = row
	}
	if row.kind != kind {
		panic("obs: metric " + key + " registered with two kinds")
	}
	return row
}

// Counter adds v to the named counter row. Rows filled from several
// servers sum, so a gauge whose aggregate is a sum (a fleet's pending
// requests) is filled as one too.
func (r *Registry) Counter(name string, labels Labels, v float64) {
	r.row(name, labels, kindCounter).value += v
}

// Gauge sets the named gauge row to the maximum of its current value
// and v, so merging the same gauge from several replicas keeps the
// peak (the useful aggregate for makespans).
func (r *Registry) Gauge(name string, labels Labels, v float64) {
	row := r.row(name, labels, kindGauge)
	if v > row.value {
		row.value = v
	}
}

// Histogram merges h into the named histogram row. Rows merged under
// the same name and labels must share bucket layouts.
func (r *Registry) Histogram(name string, labels Labels, h *Histogram) {
	row := r.row(name, labels, kindHistogram)
	if row.hist == nil {
		row.hist = NewHistogram(h.Bounds())
	}
	row.hist.Merge(h)
}

func formatMetric(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render returns the text exposition: one `name{labels} value` line
// per counter/gauge row and Prometheus-style `_bucket`/`_sum`/`_count`
// lines per histogram row, all sorted by name then labels, so the
// output is deterministic.
func (r *Registry) Render() string {
	keys := make([]string, 0, len(r.rows))
	for k := range r.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		row := r.rows[k]
		switch row.kind {
		case kindCounter, kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", row.name, row.labels, formatMetric(row.value))
		case kindHistogram:
			h := row.hist
			inner := strings.TrimSuffix(strings.TrimPrefix(row.labels, "{"), "}")
			join := func(le string) string {
				if inner == "" {
					return "{le=" + le + "}"
				}
				return "{" + inner + ",le=" + le + "}"
			}
			var cum int64
			counts := h.Counts()
			bounds := h.Bounds()
			for i, bound := range bounds {
				cum += counts[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", row.name, join(strconv.Quote(formatMetric(bound))), cum)
			}
			cum += counts[len(counts)-1]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", row.name, join(`"+Inf"`), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", row.name, row.labels, formatMetric(h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", row.name, row.labels, h.Count())
		}
	}
	return b.String()
}
