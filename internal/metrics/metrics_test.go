package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a/count") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("a/level")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilRegistryDiscards(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter retained a value")
	}
	g := r.Gauge("x")
	g.Set(9)
	if g.Value() != 0 {
		t.Fatal("nil gauge retained a value")
	}
	h, err := r.Histogram("x", CountBuckets)
	if err != nil {
		t.Fatalf("nil registry histogram: %v", err)
	}
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Bounds() != nil {
		t.Fatal("nil histogram retained state")
	}
	r.MustHistogram("x", CountBuckets).Observe(2)
	if r.Snapshot().Counters != nil {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestHistogramBucketBoundaries pins the boundary rule: bucket i holds
// v <= bounds[i], with values exactly at a bound landing in that bound's
// bucket, and everything past the last bound in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h, err := NewHistogram([]int64{10, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {10, 0}, // at the bound -> that bucket
		{11, 1}, {100, 1},
		{101, 2}, {1000, 2},
		{1001, 3}, {1 << 40, 3}, // overflow
	}
	for _, c := range cases {
		before := h.counts[c.bucket].Load()
		h.Observe(c.v)
		if after := h.counts[c.bucket].Load(); after != before+1 {
			t.Errorf("Observe(%d): bucket %d not incremented", c.v, c.bucket)
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
	var wantSum int64
	for _, c := range cases {
		wantSum += c.v
	}
	if h.Sum() != wantSum {
		t.Fatalf("sum = %d, want %d", h.Sum(), wantSum)
	}
}

// TestHistogramObserveNMatchesObserve checks ObserveN(v, n) against n
// calls to Observe(v): bucket counts, sum and total, including n = 0
// and values on, between and past the bounds. A nil histogram discards
// both.
func TestHistogramObserveNMatchesObserve(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	many, err := NewHistogram(bounds)
	if err != nil {
		t.Fatal(err)
	}
	once, err := NewHistogram(bounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		v int64
		n uint64
	}{{-5, 3}, {10, 1}, {11, 0}, {100, 7}, {500, 2}, {1 << 40, 4}, {1000, 0}, {10, 5}} {
		for k := uint64(0); k < c.n; k++ {
			many.Observe(c.v)
		}
		once.ObserveN(c.v, c.n)
	}
	for b := range many.counts {
		if m, o := many.counts[b].Load(), once.counts[b].Load(); m != o {
			t.Errorf("bucket %d: %d Observe calls, %d through ObserveN", b, m, o)
		}
	}
	if many.Count() != once.Count() || many.Sum() != once.Sum() {
		t.Errorf("count/sum %d/%d through Observe, %d/%d through ObserveN", many.Count(), many.Sum(), once.Count(), once.Sum())
	}
	var none *Histogram
	none.ObserveN(5, 3)
	none.ObserveN(5, 0)
	if none.Count() != 0 || none.Sum() != 0 {
		t.Error("a nil histogram kept an observation")
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewHistogram([]int64{1, 1}); err == nil {
		t.Error("duplicate bounds accepted")
	}
	if _, err := NewHistogram([]int64{5, 3}); err == nil {
		t.Error("descending bounds accepted")
	}
	r := NewRegistry()
	if _, err := r.Histogram("bad", []int64{2, 1}); err == nil {
		t.Error("registry accepted descending bounds")
	}
}

func TestHistogramFirstCreationWins(t *testing.T) {
	r := NewRegistry()
	h1 := r.MustHistogram("h", []int64{1, 2, 3})
	h2 := r.MustHistogram("h", []int64{10, 20})
	if h1 != h2 {
		t.Fatal("same name produced distinct histograms")
	}
	if got := h2.Bounds(); len(got) != 3 {
		t.Fatalf("later bounds overrode first creation: %v", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(100, 2, 5)
	want := []int64{100, 200, 400, 800, 1600}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	// Degenerate parameters still yield valid (ascending) bounds.
	for _, bad := range [][]int64{ExpBuckets(0, 2, 3), ExpBuckets(10, 0.5, 3), ExpBuckets(10, 2, 0)} {
		if _, err := NewHistogram(bad); err != nil {
			t.Fatalf("degenerate ExpBuckets output invalid: %v", bad)
		}
	}
	// Tiny factors cannot produce non-ascending pairs.
	if _, err := NewHistogram(ExpBuckets(1, 1.01, 20)); err != nil {
		t.Fatal("small-factor buckets not strictly ascending")
	}
}

func TestStandardFamiliesValid(t *testing.T) {
	for name, bounds := range map[string][]int64{
		"latency": LatencyBuckets, "size": SizeBuckets, "count": CountBuckets,
	} {
		if _, err := NewHistogram(bounds); err != nil {
			t.Errorf("%s buckets invalid: %v", name, err)
		}
	}
	if CountBuckets[0] != 0 || CountBuckets[1] != 1 || CountBuckets[len(CountBuckets)-1] != 32768 {
		t.Errorf("CountBuckets = %v, want 0, then 1..32768", CountBuckets)
	}
}

func TestNonDeterministic(t *testing.T) {
	for name, want := range map[string]bool{
		"core/blame_wallns":            true,
		"sigcrypto/verify_hits_nondet": true,
		"core/blame_calls":             false,
		"wire/message_bytes":           false,
		"wallns_prefix_not_suffix":     false,
	} {
		if got := NonDeterministic(name); got != want {
			t.Errorf("NonDeterministic(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestConcurrentObservations is the race-detector smoke: many
// goroutines hammer one registry's handles and the totals must add up.
func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.MustHistogram("h", CountBuckets)
			gauge := r.Gauge("g")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(int64(i % 200))
				gauge.Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.MustHistogram("h", CountBuckets).Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}
