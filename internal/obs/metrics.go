// Package obs is the observability plane of the relying party: a
// dependency-free metrics registry with Prometheus text exposition, a
// bounded flight recorder for degraded events, per-sync trace spans timed
// by the injected clock, and the operator HTTP surface that exposes all of
// it.
//
// The paper's thesis is that relying parties must notice authority
// misbehavior; PR 2's degradation ladder and PR 3/6's reuse tiers compute
// the evidence but, until this package, buried it in per-sync Result
// structs — an operator polling between syncs was blind exactly when a
// Stalloris-style downgrade or a silently-vanishing subtree mattered. Every
// signal the validator computes now has a continuously-scrapable series, a
// recorded event, or both.
//
// Design constraints, in order:
//
//  1. Metric updates must be provably free: a counter/gauge update is one
//     atomic RMW, a histogram observation is two — zero allocations, no
//     locks, no map lookups. Callers obtain handles once at construction
//     and hold them; TestZeroAllocUpdates holds the handles to that. Trace
//     spans are not free: each is a heap allocation, so a relying party
//     opens them only for publication points that did work, back-dated
//     (Span.ChildAt) once it knows. rp's
//     TestWarmUnchangedSyncAllocations/instrumented pins a warm unchanged
//     poll at the root span alone and at most 16 allocations more than a
//     bare poll, so any per-point cost fails it.
//  2. Uninstrumented use must cost nothing: every handle method is
//     nil-receiver safe, so a component without a registry skips the work
//     on one predictable branch.
//  3. No dependencies: the registry speaks the Prometheus text exposition
//     format directly (WriteText); no client library is vendored.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the exposition TYPE of a family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
	kindCounterCollect
	kindGaugeCollect
)

func (k metricKind) expoType() string {
	switch k {
	case kindCounter, kindCounterFunc, kindCounterCollect:
		return "counter"
	case kindGauge, kindGaugeFunc, kindGaugeCollect:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing value. Add and Inc are one atomic
// RMW: zero allocations, safe for any number of concurrent writers, and
// no-ops on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value. Set is one atomic store, Add one CAS
// loop: zero allocations, nil-receiver safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (negative to subtract).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Observe is a linear scan over
// the (small, fixed) bucket bounds plus two atomic RMWs: zero allocations,
// nil-receiver safe. Buckets are upper bounds; the +Inf bucket is implicit.
type Histogram struct {
	upper   []float64
	counts  []atomic.Uint64 // len(upper)+1; last is +Inf
	sumBits atomic.Uint64
	total   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.total.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DurationBuckets is the default latency bucket ladder, in seconds: wide
// enough to cover a 2.5ms warm re-sync and a 350s cold 1M-object walk in
// the same series.
func DurationBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}
}

// CounterVec is a family of counters sharing a name, distinguished by label
// values. With allocates on first use of a label combination; hot paths
// call it once and hold the returned handle.
type CounterVec struct {
	fam *family
}

// With returns the counter for the given label values (one per label name,
// in declaration order).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.child(values)
}

// Emit publishes one series of a collect-on-scrape family: the value plus
// one label value per declared label name.
type Emit func(value float64, labelValues ...string)

// family is one exposition family: a name, a TYPE, and either a single
// metric, labeled counters (CounterVec), or a scrape-time callback.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64

	single  any             // *Counter, *Gauge or *Histogram (unlabeled)
	fn      func() float64  // value callback (kind*Func)
	collect func(emit Emit) // series callback (kind*Collect)

	mu sync.Mutex
	// children maps joined label values to the child counter. guarded by
	// mu.
	children map[string]*Counter
}

const labelSep = "\x1f"

// child returns the counter for the given label values, creating it on
// first use.
func (f *family) child(values []string) *Counter {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[key]
	if !ok {
		m = &Counter{}
		f.children[key] = m
	}
	return m
}

func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent: asking for a name that
// already exists with the same shape (kind, labels, buckets) returns the
// existing handle, so components sharing one registry re-construct freely;
// re-registering under a different shape panics — that is a programming
// error, not a runtime condition.
type Registry struct {
	mu sync.Mutex
	// families maps metric name to its family. guarded by mu.
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register finds or creates a family, enforcing shape compatibility.
func (r *Registry) register(name, help string, kind metricKind, buckets []float64, labelNames []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labelNames) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labelNames,
		buckets: buckets, children: make(map[string]*Counter)}
	r.families[name] = f
	return f
}

// Counter registers (or returns) the plain counter name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindCounter, nil, nil)
	if f.single == nil {
		f.single = &Counter{}
	}
	return f.single.(*Counter)
}

// Gauge registers (or returns) the plain gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindGauge, nil, nil)
	if f.single == nil {
		f.single = &Gauge{}
	}
	return f.single.(*Gauge)
}

// Histogram registers (or returns) the histogram name with the given bucket
// upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	sorted := append([]float64(nil), buckets...)
	sort.Float64s(sorted)
	f := r.register(name, help, kindHistogram, sorted, nil)
	if f.single == nil {
		f.single = newHistogram(sorted)
	}
	return f.single.(*Histogram)
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.register(name, help, kindCounter, nil, labelNames)}
}

// CounterFunc registers a counter whose value is read by fn at scrape time
// — for sources that already keep their own atomic count.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindCounterFunc, nil, nil)
	f.fn = fn
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindGaugeFunc, nil, nil)
	f.fn = fn
}

// CollectGauges registers a labeled gauge family whose series are produced
// by collect at scrape time — for label sets that change at runtime (one
// breaker gauge per publication point, one queue-depth gauge per connected
// router) where per-update bookkeeping would put a map on the hot path.
func (r *Registry) CollectGauges(name, help string, labelNames []string, collect func(emit Emit)) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindGaugeCollect, nil, labelNames)
	f.collect = collect
}

// CollectCounters is CollectGauges for counters: a labeled family whose
// series are read at scrape time from counts the source already keeps.
func (r *Registry) CollectCounters(name, help string, labelNames []string, collect func(emit Emit)) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindCounterCollect, nil, labelNames)
	f.collect = collect
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4), deterministically ordered: families by name, series by
// label values. Scrape-time callbacks run here, off every hot path.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	b := &strings.Builder{}
	for _, f := range fams {
		writeFamily(b, f)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Sample reads one series off the exposition WriteText renders: series is
// the sample as exposed, labels included
// (`rpki_repo_requests_total{verb="list"}`). It is how tests and attack
// scenarios assert on what an operator would scrape; false means no such
// series.
func (r *Registry) Sample(series string) (float64, bool) {
	var text strings.Builder
	if err := r.WriteText(&text); err != nil {
		return 0, false
	}
	for _, line := range strings.Split(text.String(), "\n") {
		if value, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(value, 64)
			return v, err == nil
		}
	}
	return 0, false
}

func writeFamily(b *strings.Builder, f *family) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind.expoType())
	switch f.kind {
	case kindCounterFunc, kindGaugeFunc:
		writeSeries(b, f.name, nil, nil, f.fn())
	case kindCounterCollect, kindGaugeCollect:
		type series struct {
			values []string
			v      float64
		}
		var all []series
		if f.collect != nil {
			f.collect(func(v float64, labelValues ...string) {
				vals := append([]string(nil), labelValues...)
				all = append(all, series{values: vals, v: v})
			})
		}
		sort.Slice(all, func(i, j int) bool {
			return strings.Join(all[i].values, labelSep) < strings.Join(all[j].values, labelSep)
		})
		for _, s := range all {
			writeSeries(b, f.name, f.labels, s.values, s.v)
		}
	default:
		if f.single != nil {
			writeMetric(b, f, nil, f.single)
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		kids := make([]*Counter, len(keys))
		for i, k := range keys {
			kids[i] = f.children[k]
		}
		f.mu.Unlock()
		for i, k := range keys {
			var values []string
			if k != "" || len(f.labels) > 0 {
				values = strings.Split(k, labelSep)
			}
			writeMetric(b, f, values, kids[i])
		}
	}
}

func writeMetric(b *strings.Builder, f *family, labelValues []string, m any) {
	switch m := m.(type) {
	case *Counter:
		writeSeries(b, f.name, f.labels, labelValues, float64(m.Value()))
	case *Gauge:
		writeSeries(b, f.name, f.labels, labelValues, m.Value())
	case *Histogram:
		cum := uint64(0)
		for i := range m.counts {
			cum += m.counts[i].Load()
			le := "+Inf"
			if i < len(m.upper) {
				le = formatFloat(m.upper[i])
			}
			writeSeries(b, f.name+"_bucket", append(f.labels, "le"), append(labelValues, le), float64(cum))
		}
		writeSeries(b, f.name+"_sum", f.labels, labelValues, m.Sum())
		writeSeries(b, f.name+"_count", f.labels, labelValues, float64(m.Count()))
	}
}

func writeSeries(b *strings.Builder, name string, labels, values []string, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			val := ""
			if i < len(values) {
				val = values[i]
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(labelEscaper.Replace(val))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
