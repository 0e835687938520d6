package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"concilium/internal/benchreport"
)

func writeReport(t *testing.T, dir, name string, mutate func(*benchreport.Report)) string {
	t.Helper()
	r := benchreport.New("bench", 7, "small")
	r.Figures = []benchreport.Figure{
		{
			Name:   "fig1",
			Checks: map[string]float64{"max_mean_error": 0.05},
			Timing: benchreport.Timing{Ops: 1, AllocsPerOp: 77219, BytesPerOp: 3285728},
		},
		{
			Name:   "chaos-short",
			Checks: map[string]float64{"sent": 40, "invariants_ok": 1},
			Timing: benchreport.Timing{Ops: 80},
		},
	}
	if mutate != nil {
		mutate(r)
	}
	path := filepath.Join(dir, name)
	if err := benchreport.WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", nil)
	cur := writeReport(t, dir, "cur.json", func(r *benchreport.Report) {
		r.Figures[0].Timing.AllocsPerOp = 84941 // +10%, inside tolerance
		r.Env.Workers = 4
	})
	var buf bytes.Buffer
	if err := run(&buf, []string{base, cur}); err != nil {
		t.Fatalf("gate failed unexpectedly: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "gate passed") {
		t.Errorf("output missing pass marker:\n%s", buf.String())
	}
}

func TestAllocGate(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", func(r *benchreport.Report) {
		r.Figures[0].Timing.AllocsPerOp = 100000
		r.Figures[0].Timing.BytesPerOp = 1 << 24
	})
	cur := writeReport(t, dir, "cur.json", func(r *benchreport.Report) {
		r.Figures[0].Timing.AllocsPerOp = 250000 // 2.5x
		r.Figures[0].Timing.BytesPerOp = 1 << 24
	})

	// The count gate always runs: it fails and names the axis.
	var buf bytes.Buffer
	err := run(&buf, []string{base, cur})
	if err == nil {
		t.Fatalf("count gate passed despite 2.5x allocs/op growth:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "COUNT REGRESSION fig1") || !strings.Contains(buf.String(), "allocs/op") {
		t.Errorf("output missing count regression line:\n%s", buf.String())
	}

	// The allocs floor exempts tiny figures on the allocation axes.
	tinyBase := writeReport(t, dir, "tiny-base.json", func(r *benchreport.Report) {
		r.Figures[0].Timing.AllocsPerOp = 313
		r.Figures[0].Timing.BytesPerOp = 8592
	})
	tinyCur := writeReport(t, dir, "tiny-cur.json", func(r *benchreport.Report) {
		r.Figures[0].Timing.AllocsPerOp = 900
		r.Figures[0].Timing.BytesPerOp = 30000
	})
	buf.Reset()
	if err := run(&buf, []string{tinyBase, tinyCur}); err != nil {
		t.Fatalf("allocs floor did not apply: %v\n%s", err, buf.String())
	}

	// The floor is on the run's total: 50 allocs/op over 80 ops is
	// 4,000 allocations, gated.
	cheapBase := writeReport(t, dir, "cheap-base.json", func(r *benchreport.Report) {
		r.Figures[1].Timing = benchreport.Timing{Ops: 80, AllocsPerOp: 50, BytesPerOp: 25721}
	})
	cheapCur := writeReport(t, dir, "cheap-cur.json", func(r *benchreport.Report) {
		r.Figures[1].Timing = benchreport.Timing{Ops: 80, AllocsPerOp: 70, BytesPerOp: 25721}
	})
	buf.Reset()
	if err := run(&buf, []string{cheapBase, cheapCur}); err == nil {
		t.Fatalf("count gate passed despite +40%% allocs/op over 80 ops:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "COUNT REGRESSION chaos-short") {
		t.Errorf("output missing chaos-short regression line:\n%s", buf.String())
	}
}

// TestFootprintGateIgnoresAllocFloor: a Scale rung of 40 nodes at 17
// allocs/op allocates under the allocs floor in all, yet its resident
// bytes per node is the budget the gate exists to hold.
func TestFootprintGateIgnoresAllocFloor(t *testing.T) {
	dir := t.TempDir()
	scale := func(perNode int64) func(*benchreport.Report) {
		return func(r *benchreport.Report) {
			r.Figures = append(r.Figures, benchreport.Figure{
				Name:   "scale-n40",
				Checks: map[string]float64{"overlay_n": 40},
				Timing: benchreport.Timing{Ops: 40, AllocsPerOp: 17, BytesPerOp: 2248, BytesPerNode: perNode},
			})
		}
	}
	base := writeReport(t, dir, "base.json", scale(926))
	grown := writeReport(t, dir, "grown.json", scale(1200)) // +30%
	var buf bytes.Buffer
	if err := run(&buf, []string{base, grown}); err == nil {
		t.Fatalf("footprint gate passed despite +30%% bytes/node:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "COUNT REGRESSION scale-n40") || !strings.Contains(buf.String(), "bytes/node") {
		t.Errorf("output missing footprint regression line:\n%s", buf.String())
	}
	within := writeReport(t, dir, "within.json", scale(1100)) // +19%
	buf.Reset()
	if err := run(&buf, []string{base, within}); err != nil {
		t.Fatalf("footprint gate failed inside tolerance: %v\n%s", err, buf.String())
	}
}

// TestStalePinGate: a count that fell more than 25% below its pin
// fails the gate with a line that names the baseline to re-pin.
func TestStalePinGate(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", nil)
	cur := writeReport(t, dir, "cur.json", func(r *benchreport.Report) {
		r.Figures[0].Timing.AllocsPerOp = 4575
		r.Figures[0].Timing.BytesPerOp = 95416
	})
	var buf bytes.Buffer
	if err := run(&buf, []string{base, cur}); err == nil {
		t.Fatalf("gate passed despite a stale pin:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "STALE PIN  fig1") || !strings.Contains(buf.String(), "re-pin "+base) {
		t.Errorf("output missing stale-pin line:\n%s", buf.String())
	}
	// A report that measured no counts (a campaign run) is not stale.
	unmeasured := writeReport(t, dir, "unmeasured.json", func(r *benchreport.Report) {
		r.Figures[0].Timing = benchreport.Timing{Ops: 1}
	})
	buf.Reset()
	if err := run(&buf, []string{base, unmeasured}); err != nil {
		t.Fatalf("gate failed on unmeasured counts: %v\n%s", err, buf.String())
	}
}

func TestGateFailsOnMissingFigure(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", nil)
	cur := writeReport(t, dir, "cur.json", func(r *benchreport.Report) {
		r.Figures = r.Figures[:1] // drop chaos-short
	})
	var buf bytes.Buffer
	if err := run(&buf, []string{base, cur}); err == nil {
		t.Fatalf("gate passed despite dropped benchmark:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "MISSING    chaos-short") {
		t.Errorf("output missing MISSING line:\n%s", buf.String())
	}
}

// TestRequireChecks: a check divergence fails the default gate, with
// no flag asking for it.
func TestRequireChecks(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", nil)
	cur := writeReport(t, dir, "cur.json", func(r *benchreport.Report) {
		r.Figures[0].Checks["max_mean_error"] = 0.9
	})
	var buf bytes.Buffer
	if err := run(&buf, []string{base, cur}); err == nil {
		t.Fatalf("gate passed despite check divergence:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "CHECKS DIVERGED fig1") {
		t.Errorf("divergence not reported:\n%s", buf.String())
	}
}

func TestCanonicalMode(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", nil)
	// Counts far past the gate's tolerance and a different env, with an
	// identical deterministic core: a parallel run allocates more than a
	// serial one, and -canonical must not care.
	same := writeReport(t, dir, "same.json", func(r *benchreport.Report) {
		r.Figures[0].Timing.AllocsPerOp *= 3
		r.Figures[0].Timing.BytesPerOp *= 3
		r.Env.Workers = 8
	})
	var buf bytes.Buffer
	if err := run(&buf, []string{"-canonical", base, same}); err != nil {
		t.Fatalf("canonical gate failed on identical cores: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "canonical cores identical") {
		t.Errorf("output missing canonical marker:\n%s", buf.String())
	}

	diff := writeReport(t, dir, "diff.json", func(r *benchreport.Report) {
		r.Figures[0].Checks["max_mean_error"] = 0.06
	})
	buf.Reset()
	if err := run(&buf, []string{"-canonical", base, diff}); err == nil {
		t.Fatalf("canonical gate passed despite diverged cores:\n%s", buf.String())
	}
}

func TestFiguresFilter(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", nil)
	// Partial current report: only fig1, as a scale-smoke-style job
	// would produce. Unfiltered, the dropped figure fails the gate.
	cur := writeReport(t, dir, "cur.json", func(r *benchreport.Report) {
		r.Figures = r.Figures[:1]
	})
	var buf bytes.Buffer
	if err := run(&buf, []string{base, cur}); err == nil {
		t.Fatalf("unfiltered gate passed despite missing figure:\n%s", buf.String())
	}

	// Restricted to fig1, the partial report gates cleanly.
	buf.Reset()
	if err := run(&buf, []string{"-figures", "fig1", base, cur}); err != nil {
		t.Fatalf("-figures fig1 gate failed: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), "MISSING") {
		t.Errorf("filtered gate still reports MISSING:\n%s", buf.String())
	}

	// The filter still catches a real regression in the kept figure.
	reg := writeReport(t, dir, "reg.json", func(r *benchreport.Report) {
		r.Figures = r.Figures[:1]
		r.Figures[0].Timing.AllocsPerOp *= 2
	})
	buf.Reset()
	if err := run(&buf, []string{"-figures", "fig1", base, reg}); err == nil {
		t.Fatalf("filtered gate passed despite 2x allocs/op:\n%s", buf.String())
	}

	// A name matching neither report is a configuration error.
	buf.Reset()
	if err := run(&buf, []string{"-figures", "no-such-fig", base, cur}); err == nil {
		t.Fatal("-figures accepted a name absent from both reports")
	}
}

func TestUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"only-one.json"}); err == nil {
		t.Error("single argument accepted")
	}
	if err := run(&buf, []string{"/nonexistent/a.json", "/nonexistent/b.json"}); err == nil {
		t.Error("unreadable baseline accepted")
	}
}

// TestRejectsV2Report: a schema v2 report carries wall-clock fields;
// it fails at decode rather than being gated on what it still shares.
func TestRejectsV2Report(t *testing.T) {
	dir := t.TempDir()
	cur := writeReport(t, dir, "cur.json", nil)
	v2 := filepath.Join(dir, "v2.json")
	const doc = `{"schema":"concilium/bench-report","version":2,"seed":7,"scale":"small",
"figures":[{"name":"fig1","checks":{"max_mean_error":0.05},
"timing":{"wall_ns":1000000,"ns_per_op":1000000,"allocs_per_op":77219,"bytes_per_op":3285728,"ops":1}}],
"metrics":{},"env":{}}`
	if err := os.WriteFile(v2, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(&buf, []string{v2, cur})
	if err == nil {
		t.Fatalf("v2 baseline accepted:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "version 2") {
		t.Errorf("error does not name the stale version: %v", err)
	}
}
