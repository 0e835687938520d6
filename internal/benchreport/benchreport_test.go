package benchreport

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"concilium/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleReport builds a fully-populated, fixed report. Every field is
// pinned so the encoding is stable — this is what the golden file locks.
func sampleReport() *Report {
	reg := metrics.NewRegistry()
	reg.Counter("wire/message_bytes").Add(4096)
	reg.Counter("core/msgs_sent").Add(10)
	reg.Gauge("netsim/links_down_highwater").Set(3)
	reg.MustHistogram("core/chain_len", []int64{1, 2, 4}).Observe(3)
	reg.Counter("core/blame_wallns").Add(123456)
	reg.Gauge("sigcrypto/verify_cache_hits_nondet").Set(17)

	r := New("concilium-bench", 42, "small")
	r.SetSnapshot(reg.Snapshot())
	r.Figures = []Figure{
		{
			Name:   "fig1",
			Checks: map[string]float64{"max_mean_error": 0.03125},
			Timing: Timing{Ops: 1000, AllocsPerOp: 12, BytesPerOp: 768},
		},
		{
			Name:   "scale-n1000",
			Checks: map[string]float64{"overlay_n": 1000, "canonical_hash": 123456789},
			Timing: Timing{Ops: 1000, AllocsPerOp: 900, BytesPerOp: 65536, BytesPerNode: 673},
		},
		{
			Name:   "chaos-short",
			Checks: map[string]float64{"sent": 40, "delivered": 37, "invariants_ok": 1},
			Timing: Timing{Ops: 40},
		},
	}
	r.Env = Env{
		GeneratedUnix: 1754400000,
		GoVersion:     "go1.24.0",
		GOOS:          "linux",
		GOARCH:        "amd64",
		Workers:       8,
		Cmd:           "concilium-bench",
	}
	return r
}

// TestGoldenReport locks the on-disk JSON schema: any change to field
// names, nesting, or encoding order breaks this test and must come with
// a schema Version bump (and a regenerated golden via -update).
func TestGoldenReport(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleReport()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_v3.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("report encoding drifted from golden schema.\ngot:\n%s\nwant:\n%s\n(bump Version and regenerate with -update if intentional)", buf.Bytes(), want)
	}
	// The golden file itself must decode and validate.
	r, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != 42 || len(r.Figures) != 3 || r.Figure("fig1") == nil {
		t.Fatalf("golden decoded wrong: %+v", r)
	}
	if r.Figure("scale-n1000").Timing.BytesPerNode != 673 {
		t.Fatalf("golden dropped bytes per node: %+v", r.Figure("scale-n1000").Timing)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := sampleReport()
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := Encode(&b2, back); err != nil {
		t.Fatal(err)
	}
	var b1 bytes.Buffer
	if err := Encode(&b1, orig); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("round trip not byte-stable")
	}
}

func TestValidateRejects(t *testing.T) {
	good := func() *Report { return sampleReport() }

	r := good()
	r.Schema = "other/schema"
	if err := r.Validate(); err == nil {
		t.Error("wrong schema accepted")
	}
	r = good()
	r.Version = Version + 1
	if err := r.Validate(); err == nil {
		t.Error("wrong version accepted")
	}
	r = good()
	r.Figures = append(r.Figures, Figure{Name: "fig1"})
	if err := r.Validate(); err == nil {
		t.Error("duplicate figure accepted")
	}
	r = good()
	r.Figures[0].Name = ""
	if err := r.Validate(); err == nil {
		t.Error("unnamed figure accepted")
	}
	r = good()
	r.Metrics.Counters = map[string]uint64{"leaked_wallns": 1}
	if err := r.Validate(); err == nil {
		t.Error("non-deterministic series in canonical metrics accepted")
	}
}

func TestDecodeRejectsUnknownFieldsAndStaleSchema(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"schema":"concilium/bench-report","version":3,"seed":1,"figures":[],"metrics":{},"env":{},"surprise":true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Decode(strings.NewReader(`{"schema":"concilium/bench-report","version":99,"seed":1,"figures":[],"metrics":{},"env":{}}`)); err == nil {
		t.Error("future version accepted")
	}
	// Older baselines must fail loudly, forcing a refresh rather than a
	// garbage comparison: v1, and v2 with its clock-derived timing fields.
	if _, err := Decode(strings.NewReader(`{"schema":"concilium/bench-report","version":1,"seed":1,"figures":[],"metrics":{},"env":{}}`)); err == nil {
		t.Error("stale version 1 accepted")
	}
	if _, err := Decode(strings.NewReader(`{"schema":"concilium/bench-report","version":2,"seed":1,"figures":[{"name":"fig1","timing":{"wall_ns":5,"ns_per_op":5,"allocs_per_op":1,"bytes_per_op":8,"ops":1}}],"metrics":{},"env":{}}`)); err == nil {
		t.Error("stale version 2 accepted")
	}
}

func TestCanonicalStripsTimingEnvelope(t *testing.T) {
	r := sampleReport()
	c := r.Canonical()
	if c.Env != (Env{}) {
		t.Errorf("canonical kept env: %+v", c.Env)
	}
	if len(c.WallMetrics.Gauges) != 0 || len(c.WallMetrics.Counters) != 0 {
		t.Errorf("canonical kept wall metrics: %+v", c.WallMetrics)
	}
	for _, f := range c.Figures {
		if f.Timing != (Timing{}) {
			t.Errorf("canonical kept timing for %s: %+v", f.Name, f.Timing)
		}
	}
	if c.Figure("fig1").Checks["max_mean_error"] != 0.03125 {
		t.Error("canonical dropped checks")
	}
	if c.Seed != r.Seed || c.Scale != r.Scale {
		t.Error("canonical dropped seed/scale")
	}
	// Two structurally-equal canonical reports encode identically.
	var b1, b2 bytes.Buffer
	if err := Encode(&b1, c); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b2, sampleReport().Canonical()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("canonical encoding not byte-stable")
	}
}

func TestSetSnapshotSplits(t *testing.T) {
	r := sampleReport()
	if _, ok := r.Metrics.Counters["core/blame_wallns"]; ok {
		t.Error("wall series leaked into canonical metrics")
	}
	if _, ok := r.WallMetrics.Counters["core/blame_wallns"]; !ok {
		t.Error("wall series missing from wall metrics")
	}
	if _, ok := r.Metrics.Counters["wire/message_bytes"]; !ok {
		t.Error("canonical series missing")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func countFig(name string, allocs, bytes, perNode int64, checks map[string]float64) Figure {
	return Figure{Name: name, Checks: checks, Timing: Timing{Ops: 1, AllocsPerOp: allocs, BytesPerOp: bytes, BytesPerNode: perNode}}
}

// manyOps is f run as ops operations at its per-op counts.
func manyOps(f Figure, ops int64) Figure {
	f.Timing.Ops = ops
	return f
}

func TestCompare(t *testing.T) {
	base := New("bench", 1, "small")
	base.Figures = []Figure{
		countFig("steady", 0, 0, 0, map[string]float64{"v": 1}),
		countFig("dropped", 0, 0, 0, nil),
		countFig("diverged", 0, 0, 0, map[string]float64{"v": 1}),
	}
	cur := New("bench", 1, "small")
	cur.Figures = []Figure{
		countFig("steady", 0, 0, 0, map[string]float64{"v": 1}),
		countFig("diverged", 0, 0, 0, map[string]float64{"v": 2}),
		countFig("brandnew", 0, 0, 0, nil),
	}
	res := Compare(base, cur)
	if len(res.Missing) != 1 || res.Missing[0] != "dropped" {
		t.Errorf("missing = %v, want [dropped]", res.Missing)
	}
	if len(res.Added) != 1 || res.Added[0] != "brandnew" {
		t.Errorf("added = %v, want [brandnew]", res.Added)
	}
	if len(res.ChecksDiverged) != 1 || res.ChecksDiverged[0] != "diverged" {
		t.Errorf("checks diverged = %v, want [diverged]", res.ChecksDiverged)
	}
	if res.OK() {
		t.Error("gate passed despite missing figure and diverged checks")
	}

	// A check divergence alone fails the gate.
	only := New("bench", 1, "small")
	only.Figures = []Figure{cur.Figures[0], countFig("dropped", 0, 0, 0, nil), cur.Figures[1]}
	if res := Compare(base, only); res.OK() || len(res.Missing) != 0 {
		t.Errorf("check divergence alone passed: %+v", res)
	}

	// Self-compare is clean.
	if res := Compare(base, base); !res.OK() || len(res.Added)+len(res.ChecksDiverged)+len(res.Regressions) != 0 {
		t.Errorf("self-compare not clean: %+v", res)
	}
}

func TestCompareAllocs(t *testing.T) {
	base := New("bench", 1, "small")
	base.Figures = []Figure{
		countFig("steady", 10000, 1<<20, 900, nil),
		countFig("allocheavy", 10000, 1<<20, 0, nil),
		countFig("byteheavy", 10000, 1<<20, 0, nil),
		countFig("tiny", 500, 1<<10, 0, nil),
		countFig("resident", 17, 2248, 926, nil),
		countFig("zerobase", 0, 0, 0, nil),
		manyOps(countFig("cheapops", 50, 25721, 0, nil), 80),
		manyOps(countFig("flip", 4, 8230, 0, nil), 508),
	}
	cur := New("bench", 1, "small")
	cur.Figures = []Figure{
		countFig("steady", 11000, 1<<20+1<<16, 990, nil),      // +10%, inside tolerance
		countFig("allocheavy", 20000, 1<<20, 0, nil),          // allocs doubled
		countFig("byteheavy", 10000, 1<<22, 0, nil),           // bytes quadrupled
		countFig("tiny", 50000, 1<<20, 0, nil),                // 100x, but under the allocs floor
		countFig("resident", 17, 2248, 1852, nil),             // footprint doubled, under the allocs floor
		countFig("zerobase", 99999, 1<<30, 5000, nil),         // no baseline axis to gate
		manyOps(countFig("cheapops", 100, 25721, 0, nil), 80), // 4,000 allocations in all: over the floor
		manyOps(countFig("flip", 5, 8230, 0, nil), 508),       // a one-step integer flip: +25%, inside
	}
	regs := Compare(base, cur).Regressions
	if len(regs) != 4 {
		t.Fatalf("count regressions = %+v, want [allocheavy byteheavy cheapops resident]", regs)
	}
	if regs[0].Figure != "allocheavy" || regs[0].Metric != "allocs/op" || regs[0].Ratio != 2.0 {
		t.Errorf("regs[0] = %+v, want allocheavy allocs/op 2.0x", regs[0])
	}
	if regs[1].Figure != "byteheavy" || regs[1].Metric != "bytes/op" || regs[1].Ratio != 4.0 {
		t.Errorf("regs[1] = %+v, want byteheavy bytes/op 4.0x", regs[1])
	}
	if regs[2].Figure != "cheapops" || regs[2].Metric != "allocs/op" || regs[2].Ratio != 2.0 {
		t.Errorf("regs[2] = %+v, want cheapops allocs/op 2.0x", regs[2])
	}
	if regs[3].Figure != "resident" || regs[3].Metric != "bytes/node" || regs[3].Ratio != 2.0 {
		t.Errorf("regs[3] = %+v, want resident bytes/node 2.0x", regs[3])
	}
}

// TestCompareStalePins: a count more than MaxCountRegress below its
// pin fails as stale, a few allocs/op over many ops included; one
// inside the band, one under the allocs floor and one the current
// report did not measure do not.
func TestCompareStalePins(t *testing.T) {
	base := New("bench", 1, "small")
	base.Figures = []Figure{
		countFig("steady", 10000, 1<<20, 900, nil),
		countFig("shrunk", 77223, 3286216, 0, nil),
		countFig("resident", 17, 2248, 926, nil),
		countFig("tiny", 500, 1<<16, 0, nil),
		countFig("unmeasured", 42642, 1<<23, 0, nil),
		manyOps(countFig("scale", 18, 1924, 578, nil), 1075),
	}
	cur := New("bench", 1, "small")
	cur.Figures = []Figure{
		countFig("steady", 8000, 1<<20-1<<16, 700, nil),      // −20%, −6%, −22%: inside tolerance
		countFig("shrunk", 4575, 95416, 0, nil),              // both allocation axes far below
		countFig("resident", 17, 2248, 600, nil),             // footprint −35%: gated whatever the allocs floor
		countFig("tiny", 50, 1<<10, 0, nil),                  // under the allocs floor
		countFig("unmeasured", 0, 0, 0, nil),                 // the run measured no counts
		manyOps(countFig("scale", 12, 1924, 578, nil), 1075), // 19,350 allocations in all: gated
	}
	res := Compare(base, cur)
	if len(res.Regressions) != 0 {
		t.Errorf("regressions = %+v, want none", res.Regressions)
	}
	want := []string{"resident bytes/node", "scale allocs/op", "shrunk allocs/op", "shrunk bytes/op"}
	var got []string
	for _, d := range res.Stale {
		got = append(got, d.Figure+" "+d.Metric)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("stale = %v, want %v", got, want)
	}
	if res.OK() {
		t.Error("gate passed with stale pins")
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	if err := WriteFile(path, sampleReport()); err != nil {
		t.Fatal(err)
	}
	r, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Env.Workers != 8 || r.Figure("chaos-short") == nil {
		t.Fatalf("read back wrong: %+v", r)
	}
}

func TestVerifyCacheSnapshotIsWallOnly(t *testing.T) {
	s := VerifyCacheSnapshot()
	if len(s.Gauges) != 3 {
		t.Fatalf("gauges = %v, want 3 series", s.GaugeNames())
	}
	for _, name := range s.GaugeNames() {
		if !metrics.NonDeterministic(name) {
			t.Errorf("verify-cache series %q not reserved non-deterministic", name)
		}
	}
	if !s.Canonical().Equal(metrics.Snapshot{}) {
		t.Error("verify-cache snapshot leaks into canonical")
	}
}
