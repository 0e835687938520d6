// Package benchreport defines the machine-readable benchmark report
// emitted by concilium-bench and concilium-sim in -json mode and
// consumed by cmd/benchdiff and the CI bench gate.
//
// A report splits into two parts:
//
//   - The deterministic core — seed, scale, per-figure check values, and
//     the canonical metrics snapshot. For a fixed seed this part is
//     bit-identical across worker counts, machines, and Go versions;
//     Canonical() reduces a report to exactly this part so callers can
//     byte-compare two runs.
//   - The count envelope — per-figure operation, allocation and
//     resident-byte counts, plus the host fingerprint. Counts do not
//     depend on the machine, but a parallel run allocates per worker
//     and the garbage collector moves a count by a few allocations, so
//     concilium-bench reports its serial run's counts, Compare gates
//     them with a tolerance, and Canonical drops them.
//
// No gated field is read from a clock: the reserved wall-clock and
// scheduling-dependent metric series ride along in WallMetrics for
// inspection only. Timing lives in the bench/ module alone, which
// measures parent and change in alternating pairs.
//
// Schema evolution: Version bumps on any incompatible change to the
// JSON layout; Decode rejects reports whose schema string or version it
// does not understand, so a stale BENCH_baseline.json fails loudly
// rather than comparing garbage.
package benchreport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"sort"

	"concilium/internal/metrics"
	"concilium/internal/sigcrypto"
)

// Schema identifies the report format; Version is its revision.
// Version history: 1 — initial layout; 2 — Timing gains peak_rss_bytes
// and bytes_per_node; 3 — Timing drops every clock- and RSS-derived
// field (wall_ns, ns_per_op, speedup_x, peak_rss_bytes) and keeps only
// counts.
const (
	Schema  = "concilium/bench-report"
	Version = 3
)

// Timing is one figure's count envelope: how much work it did and what
// that work allocated. None of it is read from a clock.
type Timing struct {
	// Ops is the figure's operation count (1 for a paper figure, overlay
	// nodes for the Scale figure, warm messages for the Traffic figure,
	// campaign cells for the adversary grid).
	Ops int64 `json:"ops"`
	// AllocsPerOp and BytesPerOp are heap allocation counts and bytes
	// per operation, from runtime.MemStats deltas.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// BytesPerNode is the figure's long-lived footprint per overlay node
	// (CompactSystem.Footprint divided by the node count; 0 for figures
	// without a system). Unlike BytesPerOp — which counts cumulative
	// allocation — this is resident state, the number that decides how
	// large an overlay fits in memory.
	BytesPerNode int64 `json:"bytes_per_node,omitempty"`
}

// Figure is one benchmarked unit of work — a paper figure in
// concilium-bench, a simulation phase in concilium-sim.
type Figure struct {
	Name string `json:"name"`
	// Checks are the figure's deterministic headline values (max mean
	// error, detection probabilities, minimal m, ...): a fingerprint of
	// the computation's result, invariant across worker counts.
	Checks map[string]float64 `json:"checks,omitempty"`
	Timing Timing             `json:"timing"`
}

// Env fingerprints the host and configuration a report was produced
// under — context for interpreting the count envelope.
type Env struct {
	GeneratedUnix int64  `json:"generated_unix"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	Workers       int    `json:"workers"`
	Cmd           string `json:"cmd"`
}

// Report is a full benchmark report.
type Report struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`

	// Deterministic core.
	Seed    uint64           `json:"seed"`
	Scale   string           `json:"scale,omitempty"`
	Figures []Figure         `json:"figures"`
	Metrics metrics.Snapshot `json:"metrics"`

	// Count envelope context.
	Env Env `json:"env"`
	// WallMetrics holds the reserved non-deterministic metric series
	// (the "_wallns"/"_nondet" classes), kept out of Metrics so the
	// deterministic core stays byte-comparable.
	WallMetrics metrics.Snapshot `json:"wall_metrics,omitempty"`
}

// New returns a report shell with the schema header filled in.
func New(cmd string, seed uint64, scale string) *Report {
	return &Report{
		Schema:  Schema,
		Version: Version,
		Seed:    seed,
		Scale:   scale,
		Env:     Env{Cmd: cmd},
	}
}

// SetSnapshot splits a registry snapshot into the report's
// deterministic core and wall envelope.
func (r *Report) SetSnapshot(s metrics.Snapshot) {
	r.Metrics = s.Canonical()
	r.WallMetrics = s.Wall()
}

// Validate reports the first structural problem: wrong schema or
// version, unnamed or duplicate figures, or non-deterministic series
// leaked into the canonical metrics.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("benchreport: schema %q, want %q", r.Schema, Schema)
	}
	if r.Version != Version {
		return fmt.Errorf("benchreport: version %d, want %d", r.Version, Version)
	}
	seen := make(map[string]bool, len(r.Figures))
	for i, f := range r.Figures {
		if f.Name == "" {
			return fmt.Errorf("benchreport: figure %d has no name", i)
		}
		if seen[f.Name] {
			return fmt.Errorf("benchreport: duplicate figure %q", f.Name)
		}
		seen[f.Name] = true
	}
	for _, names := range [][]string{r.Metrics.CounterNames(), r.Metrics.GaugeNames(), r.Metrics.HistogramNames()} {
		for _, name := range names {
			if metrics.NonDeterministic(name) {
				return fmt.Errorf("benchreport: non-deterministic series %q in canonical metrics", name)
			}
		}
	}
	return nil
}

// Canonical returns only the deterministic core: the count envelope,
// host fingerprint, and wall metrics are zeroed, and each figure keeps
// its name and checks. Two runs of the same seed at different worker
// counts must produce byte-identical Encode output of their Canonical
// reports.
func (r *Report) Canonical() *Report {
	out := &Report{
		Schema:  r.Schema,
		Version: r.Version,
		Seed:    r.Seed,
		Scale:   r.Scale,
		Metrics: r.Metrics.Canonical(),
	}
	for _, f := range r.Figures {
		cf := Figure{Name: f.Name}
		if len(f.Checks) > 0 {
			cf.Checks = make(map[string]float64, len(f.Checks))
			for k, v := range f.Checks {
				cf.Checks[k] = v
			}
		}
		out.Figures = append(out.Figures, cf)
	}
	return out
}

// Figure returns the named figure, or nil.
func (r *Report) Figure(name string) *Figure {
	for i := range r.Figures {
		if r.Figures[i].Name == name {
			return &r.Figures[i]
		}
	}
	return nil
}

// Encode writes the report as indented JSON with a trailing newline.
// encoding/json sorts map keys, so equal reports encode to identical
// bytes.
func Encode(w io.Writer, r *Report) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile encodes the report to path.
func WriteFile(path string, r *Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes and validates the report at path.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Decode reads and validates a report. The schema header is checked
// before the strict decode, so a report of another version fails on
// its version rather than on the first field that version renamed.
func Decode(rd io.Reader) (*Report, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("benchreport: decode: %w", err)
	}
	var hdr struct {
		Schema  string `json:"schema"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(data, &hdr); err != nil {
		return nil, fmt.Errorf("benchreport: decode: %w", err)
	}
	if err := (&Report{Schema: hdr.Schema, Version: hdr.Version}).Validate(); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("benchreport: decode: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// CountAllocs runs fn and returns the heap allocations and bytes it
// made, from runtime.MemStats deltas: the counts a Timing reports.
func CountAllocs(fn func() error) (allocs, bytes int64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc), err
}

// VerifyCacheSnapshot freezes the global Ed25519 verify-cache counters
// as reserved non-deterministic gauges: the cache is process-wide and
// its hit pattern depends on goroutine scheduling, so these series can
// never enter a canonical snapshot.
func VerifyCacheSnapshot() metrics.Snapshot {
	hits, misses, size := sigcrypto.VerifyCacheStats()
	reg := metrics.NewRegistry()
	reg.Gauge("sigcrypto/verify_cache_hits_nondet").Set(int64(hits))
	reg.Gauge("sigcrypto/verify_cache_misses_nondet").Set(int64(misses))
	reg.Gauge("sigcrypto/verify_cache_size_nondet").Set(int64(size))
	return reg.Snapshot().Wall()
}

// Gate constants. A count that grows by more than MaxCountRegress
// (0.25 = +25%) over its baseline is a regression; one that falls by
// more than MaxCountRegress below it is a stale pin, which would let
// the same growth back in unseen, so it fails too. Figures whose
// baseline run allocated at most MinAllocs in all (allocs_per_op ×
// ops) are exempt on the allocs/op and bytes/op axes, where GC
// bookkeeping alone moves a tiny count past any percentage. The floor
// is on the run's total, not per op: a run of many cheap operations
// (the traffic, chaos and scale figures) allocates thousands in all
// and is gated like any other. bytes_per_node is resident state, not
// allocation churn, so the floor does not apply to it.
const (
	MaxCountRegress = 0.25
	MinAllocs       = 1000
)

// CountDelta is one figure's change on one count axis between a
// baseline and a current report.
type CountDelta struct {
	Figure string
	// Metric is "allocs/op", "bytes/op" or "bytes/node".
	Metric string
	Base   int64
	Cur    int64
	// Ratio is Cur/Base; 1.30 means 30% more than baseline.
	Ratio float64
}

// CompareResult is the outcome of gating a current report against a
// baseline.
type CompareResult struct {
	// Missing are baseline figures absent from the current report — a
	// silently dropped figure fails the gate.
	Missing []string
	// Added are current figures with no baseline (informational).
	Added []string
	// ChecksDiverged lists figures whose deterministic check values
	// differ from the baseline's. The baseline is generated at the same
	// seed, so this means behaviour changed.
	ChecksDiverged []string
	// Regressions are count axes that grew past MaxCountRegress.
	Regressions []CountDelta
	// Stale are count axes that fell more than MaxCountRegress below
	// their baseline: the baseline needs re-pinning.
	Stale []CountDelta
}

// OK reports whether the gate passes: no missing figure, no diverged
// check, no count regression and no stale pin.
func (c *CompareResult) OK() bool {
	return len(c.Missing) == 0 && len(c.ChecksDiverged) == 0 && len(c.Regressions) == 0 && len(c.Stale) == 0
}

// Compare gates cur against base: every baseline figure must be
// present with equal checks, and each of its counts (allocs/op,
// bytes/op, bytes/node) must stay within MaxCountRegress of the
// baseline's, above or below. An axis either report leaves at zero was
// not measured there and is skipped.
func Compare(base, cur *Report) *CompareResult {
	res := &CompareResult{}
	curByName := make(map[string]*Figure, len(cur.Figures))
	for i := range cur.Figures {
		curByName[cur.Figures[i].Name] = &cur.Figures[i]
	}
	baseNames := make(map[string]bool, len(base.Figures))
	for _, bf := range base.Figures {
		baseNames[bf.Name] = true
		cf, ok := curByName[bf.Name]
		if !ok {
			res.Missing = append(res.Missing, bf.Name)
			continue
		}
		if !maps.Equal(bf.Checks, cf.Checks) {
			res.ChecksDiverged = append(res.ChecksDiverged, bf.Name)
		}
		floored := bf.Timing.AllocsPerOp*bf.Timing.Ops <= MinAllocs
		axes := []struct {
			metric    string
			base, cur int64
			floored   bool
		}{
			{"allocs/op", bf.Timing.AllocsPerOp, cf.Timing.AllocsPerOp, floored},
			{"bytes/op", bf.Timing.BytesPerOp, cf.Timing.BytesPerOp, floored},
			{"bytes/node", bf.Timing.BytesPerNode, cf.Timing.BytesPerNode, false},
		}
		for _, ax := range axes {
			if ax.floored || ax.base <= 0 || ax.cur <= 0 {
				continue
			}
			d := CountDelta{
				Figure: bf.Name, Metric: ax.metric,
				Base: ax.base, Cur: ax.cur, Ratio: float64(ax.cur) / float64(ax.base),
			}
			switch {
			case d.Ratio > 1+MaxCountRegress:
				res.Regressions = append(res.Regressions, d)
			case d.Ratio < 1-MaxCountRegress:
				res.Stale = append(res.Stale, d)
			}
		}
	}
	for _, cf := range cur.Figures {
		if !baseNames[cf.Name] {
			res.Added = append(res.Added, cf.Name)
		}
	}
	sort.Strings(res.Missing)
	sort.Strings(res.Added)
	sort.Strings(res.ChecksDiverged)
	sortDeltas(res.Regressions)
	sortDeltas(res.Stale)
	return res
}

// sortDeltas orders deltas by figure, then metric.
func sortDeltas(ds []CountDelta) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Figure != ds[j].Figure {
			return ds[i].Figure < ds[j].Figure
		}
		return ds[i].Metric < ds[j].Metric
	})
}
