// Package metrics is Concilium's quantitative observability layer:
// atomic counters, gauges, and fixed-bucket histograms registered in a
// global-free Registry that every protocol layer (core, tomography,
// dht, netsim, chaos) publishes into. Where internal/trace records
// individual events for audit, metrics aggregates — probe RTTs,
// blame-computation latency, DHT operation latency, bytes on the wire
// per message class — into snapshots that can be diffed, merged, and
// serialized into machine-readable bench reports.
//
// Determinism contract: every metric fed exclusively from simulation
// state (virtual-time durations, packet counts, byte budgets, chain
// lengths) is bit-reproducible for a fixed seed at any parexec worker
// count, because all simulation callbacks run on one goroutine and the
// parallel construction phases record nothing. Metrics that are
// inherently non-deterministic — wall-clock latencies, process-global
// cache statistics — MUST carry the reserved name suffix "_wallns"
// (wall-clock nanoseconds) or "_nondet" (anything else); Snapshot.
// Canonical strips them, and the canonical snapshot is what bench
// reports compare across worker counts and machines.
//
// All metric types are safe for concurrent use; values are observed
// with atomic operations only, so the hot-path cost is one or two
// uncontended atomic adds per observation.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 level (archive size, live replicas).
// Merged gauges take the maximum, which is the only associative and
// commutative choice that preserves "high-water" semantics.
type Gauge struct{ v atomic.Int64 }

// Set stores the current level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add shifts the level by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts int64 observations into fixed buckets. Bucket i
// holds observations v with v <= Bounds[i] (and v > Bounds[i-1]); one
// implicit overflow bucket holds everything above the last bound.
// Bounds are fixed at creation, which is what makes merging two
// histograms of the same metric well defined.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; last = overflow
	sum    atomic.Int64
	total  atomic.Uint64
}

// NewHistogram creates a histogram over strictly ascending bounds.
func NewHistogram(bounds []int64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: bounds not ascending at %d (%d <= %d)", i, bounds[i], bounds[i-1])
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h, nil
}

// Observe records one value.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of one value, as n calls to Observe
// would, with one bucket search.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(n)
	h.sum.Add(v * int64(n))
	h.total.Add(n)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return append([]int64(nil), h.bounds...)
}

// Registry is a global-free collection of named metrics. The zero
// value is not usable; call NewRegistry. A nil *Registry is a valid
// discard sink: metric handles it returns accept observations and
// drop them, so instrumented layers need no nil checks on hot paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil, which is a safe discard counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns nil, which is a safe discard gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with bounds on
// first use. Callers must use identical bounds for the same name; a
// later caller's bounds are ignored in favor of the first creation.
// A nil registry returns nil, which is a safe discard histogram.
func (r *Registry) Histogram(name string, bounds []int64) (*Histogram, error) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h, nil
	}
	h, err := NewHistogram(bounds)
	if err != nil {
		return nil, fmt.Errorf("metrics: histogram %q: %w", name, err)
	}
	r.hists[name] = h
	return h, nil
}

// MustHistogram is Histogram for package-fixed bounds that cannot be
// invalid; it panics on error.
func (r *Registry) MustHistogram(name string, bounds []int64) *Histogram {
	h, err := r.Histogram(name, bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// NonDeterministic reports whether a metric name is in the reserved
// wall-clock / non-deterministic class that Canonical strips.
func NonDeterministic(name string) bool {
	return strings.HasSuffix(name, "_wallns") || strings.HasSuffix(name, "_nondet")
}

// ExpBuckets returns n strictly ascending bounds starting at start and
// multiplying by factor (>= 2 recommended so int64 rounding can never
// produce a non-ascending pair).
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return []int64{1}
	}
	out := make([]int64, n)
	v := float64(start)
	prev := int64(0)
	for i := 0; i < n; i++ {
		b := int64(v)
		if b <= prev {
			b = prev + 1
		}
		out[i] = b
		prev = b
		v *= factor
	}
	return out
}

// Standard bucket families, shared so every layer's histograms of the
// same physical quantity merge cleanly.
var (
	// LatencyBuckets covers simulated and wall latencies from 100 µs
	// to ~26 s in powers of two (ns units): the campaigns' 200 ms hops
	// put probe round trips at 2–8 s.
	LatencyBuckets = ExpBuckets(int64(100*time.Microsecond), 2, 19)
	// SizeBuckets covers byte sizes from 64 B to ~2 MB in powers of 4.
	SizeBuckets = ExpBuckets(64, 4, 8)
	// CountBuckets covers cardinalities (chain lengths, probe records
	// one blame consults, probe packets per sweep): a bucket of zeros,
	// then 1..32,768 in powers of two. A blame call may consult no
	// record at all, and the campaigns' calls consult thousands.
	CountBuckets = append([]int64{0}, ExpBuckets(1, 2, 16)...)
)

// sortedKeys returns m's keys in lexicographic order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
