package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// small scales a workload down to a smoke test: a few hundred nodes and
// exactly 200 messages (no time-bounded blocks beyond the fixed prefix).
func small(w spec) spec {
	w.N, w.Block, w.PrefixBlocks, w.Setups = 200, 50, 4, 2
	if w.ChurnEvery > 0 {
		w.N = 400 // leave members that are no pair's endpoint to fail
	}
	return w
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", res.Workload, len(res.Metrics), len(defs))
	}
	for _, def := range defs {
		v, ok := res.Metrics[def.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", res.Workload, def.Name)
			continue
		}
		if !nameRE.MatchString(def.Name) {
			t.Errorf("metric name %q is not a valid name", def.Name)
		}
		if v.Unit != def.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %v %q, want a finite number in %q", res.Workload, def.Name, v.Value, v.Unit, def.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		w := small(full)
		t.Run(w.Name, func(t *testing.T) {
			run := func(seed uint64, traced bool) *runResult {
				t.Helper()
				res, err := runWorkload(w, seed, 0, traced, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("seed %d traced %v: not correct: %v", seed, traced, res.Problems)
				}
				if want := int64(w.prefix()); res.Messages != want || res.Stats.Sent != want {
					t.Fatalf("sent %d messages (%d in the prefix), want %d", res.Messages, res.Stats.Sent, want)
				}
				return res
			}
			plain := run(42, false)
			checkMetrics(t, plain, endToEnd)
			for _, def := range endToEnd {
				if plain.Metrics[def.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v; none may be 0", def.Name, plain.Metrics[def.Name].Value)
				}
			}

			traced := run(42, true)
			checkMetrics(t, traced, perLayer)
			if traced.Stats != plain.Stats {
				t.Errorf("traced and untraced runs simulated different things:\n  %+v\n  %+v", traced.Stats, plain.Stats)
			}
			if again := run(42, false); again.Stats != plain.Stats {
				t.Errorf("two runs at one seed simulated different things:\n  %+v\n  %+v", again.Stats, plain.Stats)
			}
			run(7, false)

			var shares float64
			for _, name := range []string{"attr.send_share", "attr.pace_share", "attr.dht_share", "attr.churn_share", "attr.harness_share"} {
				v := traced.Metrics[name].Value
				if v < 0 {
					t.Errorf("%s = %v is negative", name, v)
				}
				shares += v
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("attr shares sum to %v, want 1", shares)
			}

			spans := traced.spans
			roots := 0
			for _, s := range spans {
				if s.End < s.Start {
					t.Fatalf("span %d %s ends before it starts", s.ID, s.Name)
				}
				if s.Parent < 0 {
					roots++
					continue
				}
				p := spans[s.Parent]
				if s.Start < p.Start || s.End > p.End {
					t.Fatalf("span %d %s [%d,%d] is not inside its parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
				}
			}
			if roots != 1 {
				t.Errorf("%d root spans, want 1", roots)
			}
			self := selfTimes(spans)
			for _, name := range []string{"run", "setup", "build", "pass", "msg", "send", "pace_run", "replay", "route"} {
				if _, ok := self[name]; !ok {
					t.Errorf("trace has no %s span", name)
				}
			}
			for name, d := range self {
				if d < 0 {
					t.Errorf("self time of %s is negative: %v", name, d)
				}
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in this package
// together.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %s: bad or repeated name, or why longer than 200", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, def := range want {
			if got[i] != def {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, want %+v", kind, i, got[i], def)
			}
			if seen[def.Name] || !nameRE.MatchString(def.Name) || def.Bound > 0.25 {
				t.Errorf("%s metric %s: bad or repeated name, or bound above 0.25", kind, def.Name)
			}
			seen[def.Name] = true
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd)
	check("per-layer", b.PerLayer, perLayer)
}

func TestExpectedCoversEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		st, err := expectedStats(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(w.prefix()); st.Sent != want {
			t.Errorf("%s: expected.json pins %d messages, the fixed prefix is %d", w.Name, st.Sent, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		def       metricDef
		base, cur []float64
		want      string
	}{
		{lower, []float64{100, 101, 102}, []float64{100, 102, 103}, "unchanged"},
		{lower, []float64{100, 101, 102}, []float64{120, 121, 122}, "regressed"},
		{lower, []float64{100, 101, 102}, []float64{80, 81, 82}, "improved"},
		{lower, []float64{100, 101, 102}, []float64{95, 96, 97}, "unchanged"},
		{lower, []float64{100, 120, 140}, []float64{110, 135, 150}, "unresolved"},
		{higher, []float64{100, 101, 102}, []float64{80, 81, 82}, "regressed"},
		{higher, []float64{100, 101, 102}, []float64{120, 121, 122}, "improved"},
		{higher, []float64{100, 101, 102}, []float64{99, 100, 101}, "unchanged"},
	} {
		if got := verdict(c.def, c.base, c.cur); got != c.want {
			t.Errorf("verdict(%s better, %v -> %v) = %s, want %s", c.def.Better, c.base, c.cur, got, c.want)
		}
	}
}
