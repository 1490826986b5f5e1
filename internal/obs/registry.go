package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is one series' label set. Rendered sorted by key so the
// exposition is deterministic.
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition-format escaping for label values.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing metric owned by the registry
// user. Safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// series renders one sample line set of a family.
type series struct {
	labels Labels
	write  func(w io.Writer, name, labels string)
}

// family is all series sharing one metric name (one HELP/TYPE block).
type family struct {
	name, help, typ string
	series          []series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format (version 0.0.4). Families appear in
// registration order; each name gets exactly one HELP/TYPE pair no
// matter how many labeled series it carries. Registration methods
// panic on a name re-registered with a different type or help — a
// wiring bug, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) familyFor(name, help, typ string) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ || f.help != help {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s/%q, was %s/%q",
			name, typ, help, f.typ, f.help))
	}
	return f
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CounterFunc registers a counter series whose value is read at
// scrape time — the natural fit for the server's existing atomics.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, "counter")
	f.series = append(f.series, series{labels: labels, write: func(w io.Writer, name, ls string) {
		fmt.Fprintf(w, "%s%s %d\n", name, ls, fn())
	}})
}

// Counter registers and returns a counter series owned by the caller.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, labels, c.Value)
	return c
}

// CounterVec is a family of counters distinguished by the value of one
// label, with series created lazily the first time a value is seen —
// the fit for labels whose values are discovered at runtime (requeue
// reasons, attempt numbers) rather than enumerable up front. The
// family's HELP/TYPE block is registered eagerly, so an unused vector
// still appears (empty) in the exposition.
type CounterVec struct {
	r          *Registry
	name, help string
	key        string

	mu sync.Mutex
	by map[string]*Counter // guarded by mu
}

// CounterVec registers a lazily-populated labeled counter family. The
// label key must be a valid metric-name-shaped identifier (the same
// grammar label names use in the exposition).
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	if !validMetricName(labelKey) {
		panic(fmt.Sprintf("obs: invalid label key %q", labelKey))
	}
	r.mu.Lock()
	r.familyFor(name, help, "counter") // reserve name + HELP/TYPE now
	r.mu.Unlock()
	return &CounterVec{r: r, name: name, help: help, key: labelKey, by: map[string]*Counter{}}
}

// With returns the counter for one label value, creating (and
// registering) its series on first use. Safe for concurrent use;
// the returned counter may be retained.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.by[value]
	if c == nil {
		c = v.r.Counter(v.name, v.help, Labels{v.key: value})
		v.by[value] = c
	}
	return c
}

// GaugeFunc registers a gauge series read at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, "gauge")
	f.series = append(f.series, series{labels: labels, write: func(w io.Writer, name, ls string) {
		fmt.Fprintf(w, "%s%s %s\n", name, ls, formatFloat(fn()))
	}})
}

// Histogram registers a histogram series. scale converts the stored
// integer values into the exposition unit (1e-9 turns nanoseconds
// into the conventional seconds; 1 keeps counts as-is). Multiple
// series under one name must share bucket bounds — Prometheus treats
// mismatched le sets across labels of one family as scrape-breaking.
func (r *Registry) Histogram(name, help string, labels Labels, h *Histogram, scale float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, "histogram")
	f.series = append(f.series, series{labels: labels, write: func(w io.Writer, name, ls string) {
		writeHistogram(w, name, labels, h.Snapshot(), scale)
	}})
}

// writeHistogram renders one histogram series: cumulative _bucket
// lines per bound plus +Inf, then _sum and _count.
func writeHistogram(w io.Writer, name string, labels Labels, s HistSnapshot, scale float64) {
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, formatFloat(float64(b)*scale)), cum)
	}
	cum += s.Counts[len(s.Bounds)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels.render(), formatFloat(float64(s.Sum)*scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels.render(), s.Count)
}

// bucketLabels renders the series labels with le appended.
func bucketLabels(labels Labels, le string) string {
	withLE := make(Labels, len(labels)+1)
	for k, v := range labels {
		withLE[k] = v
	}
	withLE["le"] = le
	return withLE.render()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered family in registration
// order. Scrape-time reads (CounterFunc/GaugeFunc/histogram
// snapshots) happen under the registry lock, so one scrape is
// internally ordered though not a consistent cut across metrics.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			s.write(w, f.name, s.labels.render())
		}
	}
}
