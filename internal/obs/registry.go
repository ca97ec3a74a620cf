// Package obs is Xtract's runtime observability layer: a concurrent
// registry of named, labeled metrics (counters, gauges, bounded-bucket
// histograms) with Prometheus text-format exposition, plus a bounded
// per-job event ring. Every metric is a fixed-size aggregate, safe to
// leave enabled on a live service under heavy traffic.
//
// The emission path is lock-free and allocation-free: series values are
// atomics (float bits for counters and gauges, per-bucket atomic counts
// for histograms), so a handle's Inc/Add/Set/Observe never takes a mutex
// and never allocates. *Vec.With on a one-label series that exists is a
// sync.Map read and allocates nothing either, so call sites resolve a
// handle where they emit; the registry's own mutex is touched only at
// family registration and exposition time.
//
// Every handle type is nil-safe: a nil *Registry hands out nil handles,
// and every method on a nil handle is a no-op. Components therefore
// instrument unconditionally and pay only a nil check when observability
// is disabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default histogram bucket upper bounds, in seconds,
// spanning sub-millisecond extractor steps through multi-minute cold
// starts and transfers.
var DefBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry is a concurrent collection of metric families. The zero value
// is not usable; construct with NewRegistry. A nil *Registry is a valid
// disabled registry: every constructor returns a nil no-op handle.
type Registry struct {
	mu       sync.Mutex
	families map[string]*metricFamily
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*metricFamily)}
}

// metricFamily is one named metric with a fixed label schema: a set of
// series keyed by label values, plus callback-backed series.
type metricFamily struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histograms only
	// fromFuncs marks a family whose series are all callbacks: one name
	// is exposed either through handles or through funcs, never both,
	// since a series of each would print the name twice.
	fromFuncs bool

	// series maps the joined label-value key to its *series. A sync.Map
	// keeps the steady-state With lookup contention-free: new series are
	// rare (label sets are low-cardinality by design), reads dominate.
	series sync.Map

	// funcMu guards the callback-backed series; they are registered once
	// at startup and read only at exposition time.
	funcMu sync.Mutex
	funcs  []funcSeries
}

type funcSeries struct {
	key    string // sorted-label identity, for dedup on re-registration
	labels [][2]string
	fn     func() float64
}

// series holds the state of one (metric, label values) time series. All
// mutation is atomic: bits carries the float bits of a counter/gauge
// value, counts/sumBits/count carry histogram state. A scrape may observe
// a histogram whose count is ahead of its sum by an in-flight sample —
// acceptable skew for fixed-size aggregates, and the price of keeping
// Observe off any lock.
type series struct {
	values []string // label values, aligned with family.labels

	bits    atomic.Uint64   // counter / gauge (float bits)
	counts  []atomic.Uint64 // histogram per-bucket increments
	sumBits atomic.Uint64   // histogram sum (float bits)
	count   atomic.Uint64   // histogram sample count
}

// addFloat adds v to an atomic float-bits cell with a CAS loop.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// getFamily returns the named family, creating it on first use.
// Re-registering a name with a different type or label schema, or for
// handles once it has func series (or the reverse), panics: it is a
// programming error, caught in tests.
func (r *Registry) getFamily(name, help string, typ metricType, labels []string, buckets []float64, fromFuncs bool) *metricFamily {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &metricFamily{
			name:      name,
			help:      help,
			typ:       typ,
			labels:    append([]string(nil), labels...),
			buckets:   append([]float64(nil), buckets...),
			fromFuncs: fromFuncs,
		}
		r.families[name] = f
		return f
	}
	if f.typ != typ || !slices.Equal(f.labels, labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s%v (was %s%v)",
			name, typ, labels, f.typ, f.labels))
	}
	if f.fromFuncs != fromFuncs {
		panic(fmt.Sprintf("obs: metric %q registered with both handle and func series", name))
	}
	return f
}

// getSeries returns the series for the given label values, creating it on
// first use.
func (f *metricFamily) getSeries(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	if s, ok := f.series.Load(key); ok {
		return s.(*series)
	}
	s := &series{values: append([]string(nil), values...)}
	if f.typ == typeHistogram {
		s.counts = make([]atomic.Uint64, len(f.buckets)+1)
	}
	actual, _ := f.series.LoadOrStore(key, s)
	return actual.(*series)
}

// Counter returns the unlabeled counter registered under name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, typeCounter, nil, nil, false)
	return &Counter{s: f.getSeries(nil)}
}

// CounterVec returns a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.getFamily(name, help, typeCounter, labels, nil, false)}
}

// Gauge returns the unlabeled gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, typeGauge, nil, nil, false)
	return &Gauge{s: f.getSeries(nil)}
}

// GaugeFunc registers a callback-backed gauge series: the callback is
// invoked at exposition time. labels fixes the series' label set; it may
// be nil for an unlabeled series. Use this for live readings such as
// queue depths, where sampling at scrape time beats pushing on every
// mutation.
//
// Re-registering the same name with the same label set replaces the
// callback instead of appending a duplicate series (duplicate exposition
// lines are invalid Prometheus text format), so components re-created
// across a recovery can re-Instrument safely. Labeled func series
// deliberately coexist with the family's nil-label schema: the family is
// registered with no label names, and each func series carries its own
// fixed label pairs straight into the exposition line.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.registerFunc(name, help, typeGauge, sortedPairs(labels), fn)
}

// CounterFunc is GaugeFunc for a counter its component already keeps:
// fn, typically the Load method of an atomic.Int64 field, is read at
// exposition time, so the event is counted once, where it happens, and
// the registry holds no second copy. fn must never decrease.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.registerFunc(name, help, typeCounter, sortedPairs(labels), func() float64 { return float64(fn()) })
}

// FloatCounterFunc is CounterFunc for a count its owner keeps as a
// float (seconds billed, say) or under a lock of its own. labels are
// name, value pairs, exposed in the order given, so a family can lead
// with the label that names the owner.
func (r *Registry) FloatCounterFunc(name, help string, fn func() float64, labels ...[2]string) {
	if r == nil || fn == nil {
		return
	}
	r.registerFunc(name, help, typeCounter, labels, fn)
}

// sortedPairs orders a label map by name.
func sortedPairs(labels map[string]string) [][2]string {
	pairs := make([][2]string, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, [2]string{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	return pairs
}

func (r *Registry) registerFunc(name, help string, typ metricType, pairs [][2]string, fn func() float64) {
	f := r.getFamily(name, help, typ, nil, nil, true)
	var sb strings.Builder
	for _, p := range pairs {
		sb.WriteString(p[0])
		sb.WriteByte('\xff')
		sb.WriteString(p[1])
		sb.WriteByte('\xff')
	}
	key := sb.String()
	f.funcMu.Lock()
	defer f.funcMu.Unlock()
	for i := range f.funcs {
		if f.funcs[i].key == key {
			f.funcs[i].fn = fn
			return
		}
	}
	f.funcs = append(f.funcs, funcSeries{key: key, labels: pairs, fn: fn})
}

// Histogram returns the unlabeled histogram registered under name.
// buckets are the upper bounds of the observation buckets, ascending; nil
// selects DefBuckets. Samples are folded into fixed bucket counts, so
// memory stays constant no matter how many observations arrive.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.getFamily(name, help, typeHistogram, nil, buckets, false)
	return &Histogram{f: f, s: f.getSeries(nil)}
}

// HistogramVec returns a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.getFamily(name, help, typeHistogram, labels, buckets, false)}
}

// Counter is a monotonically increasing metric handle. Cached handles
// emit lock-free and allocation-free.
type Counter struct{ s *series }

// Add increments the counter by v; negative deltas are ignored.
func (c *Counter) Add(v float64) {
	if c == nil || c.s == nil || v <= 0 {
		return
	}
	addFloat(&c.s.bits, v)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil handle).
func (c *Counter) Value() float64 {
	if c == nil || c.s == nil {
		return 0
	}
	return math.Float64frombits(c.s.bits.Load())
}

// CounterVec hands out per-label-value counters.
type CounterVec struct{ f *metricFamily }

// With returns the counter for the given label values: a map read, which
// allocates nothing for a one-label series that exists. The first call
// for a value creates its series.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	return &Counter{s: v.f.getSeries(values)}
}

// Gauge is a metric handle that can go up and down.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil || g.s == nil {
		return
	}
	addFloat(&g.s.bits, v)
}

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge reading (0 for a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil || g.s == nil {
		return 0
	}
	return math.Float64frombits(g.s.bits.Load())
}

// Histogram is a bounded-bucket distribution handle.
type Histogram struct {
	f *metricFamily
	s *series
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.s == nil {
		return
	}
	idx := sort.SearchFloat64s(h.f.buckets, v) // first bound >= v ("le")
	h.s.counts[idx].Add(1)
	addFloat(&h.s.sumBits, v)
	h.s.count.Add(1)
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples observed (0 for a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil || h.s == nil {
		return 0
	}
	return h.s.count.Load()
}

// Sum returns the sum of all observed samples (0 for a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil || h.s == nil {
		return 0
	}
	return math.Float64frombits(h.s.sumBits.Load())
}

// HistogramVec hands out per-label-value histograms.
type HistogramVec struct{ f *metricFamily }

// With returns the histogram for the given label values (see
// CounterVec.With).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	return &Histogram{f: v.f, s: v.f.getSeries(values)}
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families and series sorted by name
// so output is deterministic. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*metricFamily, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.write(w)
	}
}

func (f *metricFamily) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)

	var keys []string
	byKey := make(map[string]*series)
	f.series.Range(func(k, v interface{}) bool {
		keys = append(keys, k.(string))
		byKey[k.(string)] = v.(*series)
		return true
	})
	sort.Strings(keys)
	f.funcMu.Lock()
	funcs := append([]funcSeries(nil), f.funcs...)
	f.funcMu.Unlock()

	for _, k := range keys {
		s := byKey[k]
		pairs := make([][2]string, len(f.labels))
		for i, name := range f.labels {
			pairs[i] = [2]string{name, s.values[i]}
		}
		switch f.typ {
		case typeHistogram:
			// Atomic loads without a lock: bucket counts, sum, and count
			// may be skewed by in-flight observations, which Prometheus
			// scrape semantics tolerate.
			counts := make([]uint64, len(s.counts))
			for i := range s.counts {
				counts[i] = s.counts[i].Load()
			}
			sum := math.Float64frombits(s.sumBits.Load())
			count := s.count.Load()
			var cum uint64
			for i, bound := range f.buckets {
				cum += counts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					renderLabels(append(append([][2]string(nil), pairs...),
						[2]string{"le", formatFloat(bound)})), cum)
			}
			cum += counts[len(f.buckets)]
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				renderLabels(append(append([][2]string(nil), pairs...),
					[2]string{"le", "+Inf"})), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(pairs), formatFloat(sum))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(pairs), count)
		default:
			v := math.Float64frombits(s.bits.Load())
			fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(pairs), formatFloat(v))
		}
	}
	for _, fs := range funcs {
		fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(fs.labels), formatFloat(fs.fn()))
	}
}

func renderLabels(pairs [][2]string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
