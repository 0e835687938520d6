package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"concilium/internal/benchreport"
	"concilium/internal/experiments"
	"concilium/internal/metrics"
)

func TestRunFig1(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run(&buf, []string{"-fig", "1"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "monte carlo") {
		t.Errorf("fig1 output malformed:\n%s", out)
	}
}

func TestRunFig2And3(t *testing.T) {
	t.Parallel()
	for _, fig := range []string{"2", "3"} {
		var buf bytes.Buffer
		if err := run(&buf, []string{"-fig", fig}); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		if !strings.Contains(buf.String(), "optimal gamma") {
			t.Errorf("fig %s missing summary table", fig)
		}
	}
}

func TestRunFig4SmallScale(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run(&buf, []string{"-fig", "4", "-scale", "small"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "own-tree coverage") {
		t.Error("fig4 missing coverage summary")
	}
}

func TestRunFig6And7(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run(&buf, []string{"-fig", "6"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "minimal m") {
		t.Error("fig6 missing minimal m")
	}
	buf.Reset()
	if err := run(&buf, []string{"-fig", "7"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bandwidth") {
		t.Error("fig7 missing bandwidth table")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run(&buf, []string{"-fig", "99"}); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run(&buf, []string{"-scale", "galactic", "-fig", "1"}); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run(&buf, []string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
	// A repeated size is rejected before any system is built, and the
	// error names the flag that carried it.
	for _, flagName := range []string{"scale-n", "traffic-n"} {
		err := run(&buf, []string{"-fig", "10", "-" + flagName, "1000,1000"})
		if err == nil {
			t.Errorf("duplicate -%s accepted", flagName)
		} else if !strings.Contains(err.Error(), "duplicate -"+flagName+" entry 1000") {
			t.Errorf("duplicate -%s: error %q does not name the flag", flagName, err)
		}
		err = run(&buf, []string{"-fig", "13", "-" + flagName, "x"})
		if err == nil || !strings.Contains(err.Error(), "bad -"+flagName+" entry") {
			t.Errorf("bad -%s: error %v does not name the flag", flagName, err)
		}
	}
}

// TestFigureRegistry: the table is the one list of figures. Its
// numbers and names are unique, the unknown-figure error is generated
// from it, -fig 0 selects exactly its text- or benchmark-mode entries,
// and a benchmark run reports exactly the selected figures' entries, in
// order, plus the chaos-short metrics run.
func TestFigureRegistry(t *testing.T) {
	t.Parallel()
	nums, names := map[int]bool{}, map[string]bool{}
	var valid, text, bench []string
	for _, f := range figures {
		if nums[f.num] || names[f.name] {
			t.Errorf("figure %d %q registered twice", f.num, f.name)
		}
		nums[f.num], names[f.name] = true, true
		valid = append(valid, strconv.Itoa(f.num))
		if f.text {
			text = append(text, f.name)
		}
		if f.bench {
			bench = append(bench, f.name)
		}
	}

	var buf bytes.Buffer
	err := run(&buf, []string{"-fig", "11"})
	if want := "unknown figure 11 (valid: " + strings.Join(valid, ", ") + ")"; err == nil || err.Error() != want {
		t.Errorf("unknown figure error = %v, want %q", err, want)
	}

	selected := func(bench bool) []string {
		sel, err := selectFigures(0, bench)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, f := range sel {
			out = append(out, f.name)
		}
		return out
	}
	if got := selected(false); strings.Join(got, " ") != strings.Join(text, " ") {
		t.Errorf("-fig 0 text figures = %v, want %v", got, text)
	}
	if got := selected(true); strings.Join(got, " ") != strings.Join(bench, " ") {
		t.Errorf("-fig 0 -json figures = %v, want %v", got, bench)
	}

	// Stand-in figures: one entry, two sized entries.
	stub := func(num int, name string, sizes ...int) figure {
		return figure{num: num, name: name, bench: true, run: func(c figCtx) ([]benchreport.Figure, error) {
			if len(sizes) == 0 {
				return []benchreport.Figure{{Name: c.name, Checks: map[string]float64{"v": 1}}}, nil
			}
			var out []benchreport.Figure
			for _, n := range sizes {
				out = append(out, benchreport.Figure{Name: fmt.Sprintf("%s-n%d", c.name, n), Checks: map[string]float64{"n": float64(n)}})
			}
			return out, nil
		}}
	}
	c := figCtx{seed: 3, workers: 2}
	path := filepath.Join(t.TempDir(), "stub.json")
	if err := runBenchmark(&buf, path, "small", []figure{stub(1, "one"), stub(2, "sized", 60, 120)}, c); err != nil {
		t.Fatal(err)
	}
	rep, err := benchreport.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range rep.Figures {
		got = append(got, f.Name)
	}
	if want := "one sized-n60 sized-n120 chaos-short"; strings.Join(got, " ") != want {
		t.Errorf("report figures = %v, want %s", got, want)
	}
}

// TestSerialReference: with more than one worker, a benchmark run
// re-runs every figure serially. A figure whose checks depend on the
// worker count fails; one whose counts do passes and reports the serial
// run's counts.
func TestSerialReference(t *testing.T) {
	t.Parallel()
	byWorkers := func(inChecks bool) figure {
		return figure{num: 1, name: "pooled", run: func(c figCtx) ([]benchreport.Figure, error) {
			f := benchreport.Figure{Name: c.name, Checks: map[string]float64{"v": 1}}
			if inChecks {
				f.Checks["workers"] = float64(c.workers)
			}
			f.Timing = benchreport.Timing{Ops: 1, AllocsPerOp: int64(1000 * c.workers)}
			return []benchreport.Figure{f}, nil
		}}
	}
	path := filepath.Join(t.TempDir(), "pooled.json")
	var buf bytes.Buffer
	err := runBenchmark(&buf, path, "small", []figure{byWorkers(true)}, figCtx{seed: 3, workers: 4})
	if err == nil || !strings.Contains(err.Error(), "checks diverge between workers=1 and workers=4") {
		t.Errorf("divergent figure not caught: %v", err)
	}
	if err := runBenchmark(&buf, path, "small", []figure{byWorkers(false)}, figCtx{seed: 3, workers: 4}); err != nil {
		t.Fatal(err)
	}
	rep, err := benchreport.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Figure("pooled").Timing.AllocsPerOp; got != 1000 {
		t.Errorf("reported allocs/op = %d, want the serial run's 1000", got)
	}
}

func TestRunCSVFormat(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run(&buf, []string{"-fig", "7", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "overlay N,routing entries") {
		t.Errorf("csv table header missing:\n%s", out)
	}
	if strings.Contains(out, "==") {
		t.Error("csv output contains text-format decorations")
	}
	if err := run(&buf, []string{"-format", "xml"}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunExtensionFig9(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run(&buf, []string{"-fig", "9"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "consensus") {
		t.Error("fig 9 missing consensus table")
	}
}

func TestRunJSONReport(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"-fig", "7", "-scale", "small", "-seed", "3", "-json", path}); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	rep, err := benchreport.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 3 || rep.Scale != "small" {
		t.Errorf("header wrong: seed=%d scale=%q", rep.Seed, rep.Scale)
	}
	fig := rep.Figure("fig7")
	sizes := len(experiments.DefaultBandwidthConfig().OverlaySizes)
	if fig == nil || fig.Checks["overlay_sizes"] != float64(sizes) || fig.Timing.Ops != 1 || fig.Timing.AllocsPerOp <= 0 || fig.Timing.BytesPerOp <= 0 {
		t.Errorf("fig7 entry malformed: %+v", fig)
	}
	chaos := rep.Figure("chaos-short")
	if chaos == nil || chaos.Checks["invariants_ok"] != 1 || chaos.Timing.Ops != int64(chaos.Checks["sent"]) ||
		chaos.Timing.AllocsPerOp <= 0 || chaos.Timing.BytesPerOp <= 0 {
		t.Errorf("chaos-short entry malformed: %+v", chaos)
	}
	// The embedded metrics snapshot must be canonical and populated.
	if rep.Metrics.Counters["core/messages_sent"] == 0 {
		t.Errorf("metrics snapshot empty: %v", rep.Metrics.CounterNames())
	}
	for _, name := range rep.Metrics.CounterNames() {
		if metrics.NonDeterministic(name) {
			t.Errorf("non-deterministic %q leaked into canonical metrics", name)
		}
	}
}

// TestRunJSONWorkerInvariance is the acceptance check: reports from
// -workers 1 and -workers 4 must have byte-identical deterministic
// cores.
func TestRunJSONWorkerInvariance(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	report := func(workers string) *benchreport.Report {
		path := filepath.Join(dir, "bench-w"+workers+".json")
		var buf bytes.Buffer
		if err := run(&buf, []string{"-fig", "7", "-scale", "small", "-seed", "7", "-workers", workers, "-json", path}); err != nil {
			t.Fatalf("workers=%s: %v\n%s", workers, err, buf.String())
		}
		rep, err := benchreport.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	var serial, parallel bytes.Buffer
	if err := benchreport.Encode(&serial, report("1").Canonical()); err != nil {
		t.Fatal(err)
	}
	if err := benchreport.Encode(&parallel, report("4").Canonical()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("canonical cores differ across worker counts:\n%s\nvs\n%s", serial.Bytes(), parallel.Bytes())
	}
}

// TestRunScaleFigure exercises figure 10 end to end at tiny sizes: the
// JSON report must carry one figure per requested N with populated
// deterministic checks and counts, text mode must render the table, and
// a 1k-only subset at the same seed must reproduce the same checks as
// the multi-size run (the per-N substream contract).
func TestRunScaleFigure(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	report := func(name, scaleN, workers string) *benchreport.Report {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := run(&buf, []string{"-fig", "10", "-scale-n", scaleN, "-seed", "5", "-workers", workers, "-json", path}); err != nil {
			t.Fatalf("scale-n=%s workers=%s: %v\n%s", scaleN, workers, err, buf.String())
		}
		rep, err := benchreport.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	full := report("full.json", "60,120", "4")
	for _, name := range []string{"scale-n60", "scale-n120"} {
		fig := full.Figure(name)
		if fig == nil {
			t.Fatalf("report missing %s: %+v", name, full.Figures)
		}
		if fig.Checks["overlay_n"] <= 0 || fig.Checks["canonical_hash"] <= 0 {
			t.Errorf("%s checks unpopulated: %v", name, fig.Checks)
		}
		if fig.Timing.Ops != int64(fig.Checks["overlay_n"]) || fig.Timing.AllocsPerOp <= 0 || fig.Timing.BytesPerNode <= 0 {
			t.Errorf("%s counts unpopulated: %+v", name, fig.Timing)
		}
	}

	// Subset and worker-count invariance: the scale-n60 checks must not
	// depend on which other sizes ran or on the pool size.
	sub := report("sub.json", "60", "1")
	fullFig, subFig := full.Figure("scale-n60"), sub.Figure("scale-n60")
	for key, want := range fullFig.Checks {
		if got := subFig.Checks[key]; got != want {
			t.Errorf("scale-n60 %s: %v in full run, %v in subset run", key, want, got)
		}
	}

	// Text mode renders the table.
	var buf bytes.Buffer
	if err := run(&buf, []string{"-fig", "10", "-scale-n", "60", "-seed", "5"}); err != nil {
		t.Fatalf("text mode: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "BuildCompactSystem scale") {
		t.Errorf("text output missing scale table:\n%s", buf.String())
	}

	// Bad -scale-n values are rejected.
	if err := run(&buf, []string{"-fig", "10", "-scale-n", "0"}); err == nil {
		t.Error("scale-n 0 accepted")
	}
	if err := run(&buf, []string{"-fig", "10", "-scale-n", "x"}); err == nil {
		t.Error("non-numeric scale-n accepted")
	}
}

// TestRunAdversaryFigure exercises figure 12 end to end: the JSON
// report must carry the per-cell ROC operating-point checks with
// invariants holding, and text mode must render the table plus the
// invariant list.
func TestRunAdversaryFigure(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "adversary.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"-fig", "12", "-seed", "42", "-json", path}); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	rep, err := benchreport.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figure("adversary")
	if fig == nil {
		t.Fatalf("report missing adversary figure: %+v", rep.Figures)
	}
	if fig.Checks["invariants_ok"] != 1 || fig.Checks["cells"] != 16 {
		t.Errorf("adversary checks unpopulated: %v", fig.Checks)
	}
	if fig.Timing.Ops != 16 || fig.Timing.AllocsPerOp <= 0 || fig.Timing.BytesPerOp <= 0 {
		t.Errorf("adversary counts unpopulated: %+v", fig.Timing)
	}
	// The gate the baseline pins: attackers convict strictly above
	// honest hosts at every cell the checks cover.
	for key, att := range fig.Checks {
		if !strings.HasPrefix(key, "att_") {
			continue
		}
		hon, ok := fig.Checks["hon_"+strings.TrimPrefix(key, "att_")]
		if !ok {
			t.Errorf("check %s has no honest counterpart", key)
		} else if att <= hon {
			t.Errorf("%s: attacker rate %v not above honest %v", key, att, hon)
		}
	}

	// Text mode renders the operating-point table and invariants.
	buf.Reset()
	if err := run(&buf, []string{"-fig", "12", "-seed", "42"}); err != nil {
		t.Fatalf("text mode: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "adversarial conviction ROC") || !strings.Contains(out, "roc-separation") {
		t.Errorf("text output missing ROC table or invariants:\n%s", out)
	}
}

func TestRunProfileFlags(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	if err := run(&buf, []string{"-fig", "7", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}
