package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"concilium/internal/benchreport"
)

func TestRunSmallSimulation(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	err := run(&buf, []string{"-scale", "small", "-messages", "40", "-warmup", "3m"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"messages sent:", "delivered+acked:", "dropped by node:",
		"dropped by network:", "RON baseline:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunNoMaliciousNodes(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	err := run(&buf, []string{"-scale", "small", "-messages", "20", "-malicious", "0", "-warmup", "2m"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 malicious") {
		t.Errorf("expected zero malicious nodes:\n%s", buf.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scale", "galactic"}); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run(&buf, []string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunWithTrace(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	err := run(&buf, []string{"-scale", "small", "-messages", "10", "-warmup", "2m", "-trace", "8"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "trace:") || !strings.Contains(out, "last 8 events") {
		t.Errorf("trace output missing:\n%s", out)
	}
}

func TestRunChaosMode(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	err := run(&buf, []string{"-chaos", "-seed", "1", "-duration", "short"})
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"chaos campaign seed=1", "fault kinds:", "invariants:", "result: PASS",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos output missing %q:\n%s", want, out)
		}
	}
}

func TestRunChaosDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	render := func(workers string) string {
		var buf bytes.Buffer
		err := run(&buf, []string{"-chaos", "-seed", "5", "-duration", "short", "-workers", workers})
		if err != nil {
			t.Fatalf("%v\n%s", err, buf.String())
		}
		return buf.String()
	}
	if a, b := render("1"), render("8"); a != b {
		t.Errorf("chaos report differs across -workers:\n%s\nvs\n%s", a, b)
	}
}

func TestRunChaosRejectsBadDuration(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run(&buf, []string{"-chaos", "-duration", "eternal"}); err == nil {
		t.Error("unknown chaos duration accepted")
	}
}

func TestRunAdversaryMode(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "adversary.json")
	var buf bytes.Buffer
	err := run(&buf, []string{"-adversary", "-seed", "1", "-json", path})
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"adversary campaign seed=1", "roc-separation", "invariants:", "result: PASS",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("adversary output missing %q:\n%s", want, out)
		}
	}
	rep, err := benchreport.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figure("adversary")
	if fig == nil || fig.Checks["invariants_ok"] != 1 || fig.Checks["cells"] != 16 ||
		fig.Timing.Ops != 16 || fig.Timing.AllocsPerOp <= 0 || fig.Timing.BytesPerOp <= 0 {
		t.Errorf("adversary figure malformed: %+v", fig)
	}
	if fig.Checks["att_selective-drop_f10"] <= fig.Checks["hon_selective-drop_f10"] {
		t.Errorf("ROC separation missing from checks: %+v", fig.Checks)
	}
}

func TestRunRejectsChaosPlusAdversary(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run(&buf, []string{"-chaos", "-adversary"}); err == nil {
		t.Error("mutually exclusive campaign flags accepted")
	}
}

func TestRunSimJSONReport(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "sim.json")
	var buf bytes.Buffer
	err := run(&buf, []string{"-scale", "small", "-messages", "30", "-warmup", "2m", "-seed", "9", "-json", path})
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "bench report written to") {
		t.Errorf("missing report confirmation:\n%s", buf.String())
	}
	rep, err := benchreport.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figure("simulation")
	if fig == nil || fig.Checks["sent"] <= 0 || fig.Timing.Ops != int64(fig.Checks["sent"]) {
		t.Errorf("simulation figure malformed: %+v", fig)
	}
	if rep.Metrics.Counters["core/messages_sent"] == 0 {
		t.Errorf("metrics snapshot empty: %v", rep.Metrics.CounterNames())
	}
}

func TestRunChaosJSONReport(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "chaos.json")
	var buf bytes.Buffer
	err := run(&buf, []string{"-chaos", "-seed", "1", "-duration", "short", "-json", path})
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	rep, err := benchreport.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figure("chaos-short")
	if fig == nil || fig.Checks["invariants_ok"] != 1 || fig.Checks["sent"] <= 0 ||
		fig.Timing.AllocsPerOp <= 0 || fig.Timing.BytesPerOp <= 0 {
		t.Errorf("chaos figure malformed: %+v", fig)
	}
}

func TestRunSimProfileFlags(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	err := run(&buf, []string{"-scale", "small", "-messages", "10", "-warmup", "2m", "-cpuprofile", cpu, "-memprofile", mem})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}
