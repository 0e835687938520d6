// Command bench is the repository's benchmark: four workloads of
// diagnosed overlay messages, measured end to end and layer by layer
// from outside the program. See README.md in this directory.
//
// With -workload it runs that workload once and prints, as the last
// line of standard output, the result object BENCHMARK.json's driver
// reads. Without it, it runs every workload in child processes of its
// own (-runs untraced runs and one traced run each), prints the medians
// and writes bench/out/result.json, which -compare reads.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"concilium/internal/profiling"
)

// expectedSeed is the seed whose simulated statistics expected.json pins.
const expectedSeed = 42

//go:embed expected.json
var expectedJSON []byte

// runResult is one run of one workload.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Traced    bool             `json:"traced"`
	Pinned    bool             `json:"pinned"` // the measuring thread had a CPU of its own
	N         int              `json:"overlay_n"`
	Messages  int64            `json:"messages"`
	Blocks    int              `json:"blocks"`
	Correct   bool             `json:"correct"`
	Problems  []string         `json:"problems,omitempty"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Samples says how many calls stand behind the timings.
	Samples map[string]int `json:"samples"`
	// Stats are the simulated statistics of the workload's fixed prefix.
	Stats simStats `json:"stats"`

	spans []span
}

// runWorkload sets w up w.Setups times, runs one timed pass of at
// least d and, when traced, the replay phase. want, if not nil, is what
// the fixed-prefix statistics must equal.
func runWorkload(w spec, seed uint64, d time.Duration, traced bool, want *simStats) (*runResult, error) {
	pinned := pinThread()
	var tr *tracer
	root, passSpan := int32(-1), int32(-1)
	if traced {
		tr = newTracer()
		root = tr.open(-1, "run")
	}

	var sys *system
	setups := make([]setupTimes, 0, w.Setups)
	for i := 0; i < w.Setups; i++ {
		// Let go of the previous deployment first, so peak RSS is that
		// of one deployment and each set-up starts from the same heap.
		sys = nil
		debug.FreeOSMemory()
		start := time.Now()
		s, st, err := setUp(w, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		sys = s
		setups = append(setups, st)
		if traced {
			id := tr.add(root, "setup", -1, start, start.Add(st.total()))
			at := start
			for _, p := range []struct {
				name string
				d    time.Duration
			}{{"build", st.Build}, {"probe_warm", st.ProbeWarm}, {"cold_pass", st.ColdPass}} {
				tr.add(id, p.name, -1, at, at.Add(p.d))
				at = at.Add(p.d)
			}
		}
	}

	if traced {
		passSpan = tr.open(root, "pass")
	}
	r := sys.runPass(d, tr, passSpan)
	if traced {
		tr.close(passSpan)
	}

	res := &runResult{
		Workload: w.Name, Seed: seed, Traced: traced, Pinned: pinned, N: sys.cs.Size(),
		Messages: r.final.Sent, Blocks: len(r.rates) + len(r.tracedRates),
		Attempted: r.attempted, Failed: r.failed, Stats: r.prefix,
		Samples: map[string]int{"sends": len(r.send), "delivered": len(r.deliver), "diagnosed": len(r.diag)},
	}
	res.Problems = sys.checkOutputs(r)
	if want != nil && r.prefix != *want {
		res.Problems = append(res.Problems, fmt.Sprintf("simulated statistics differ from expected.json:\n  got  %+v\n  want %+v", r.prefix, *want))
	}

	var values map[string]float64
	var defs []metricDef
	if traced {
		replaySpan := tr.open(root, "replay")
		rp, err := sys.replay(r, tr, replaySpan)
		tr.close(replaySpan)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if rp.verifies != len(r.chains) && w.ChurnEvery == 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("%d of %d recorded chains do not self-verify", len(r.chains)-rp.verifies, len(r.chains)))
		}
		values, defs = sys.perLayerValues(setups, r, rp), perLayer
		res.Samples["traced_sends"] = len(r.tracedSend)
		res.Samples["publishes"], res.Samples["fetches"] = len(r.publish), len(r.fetch)
		res.Samples["churn_events"] = len(r.failnode)
		res.Samples["replayed_chains"], res.Samples["replayed_verdicts"] = len(r.chains), len(r.verdicts)
		res.Samples["replayed_blame_calls"], res.Samples["replayed_accusations"] = rp.blameCalls, rp.accusations
		tr.close(root)
		res.spans = tr.spans
	} else {
		values, defs = endToEndValues(setups, r, profiling.PeakRSSBytes()), endToEnd
	}
	if !finite(values) {
		res.Problems = append(res.Problems, "a metric is not a finite number")
	}
	res.Metrics = make(map[string]value, len(defs))
	for _, def := range defs {
		res.Metrics[def.Name] = value{Value: values[def.Name], Unit: def.Unit}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// expectedFile is expected.json: the fixed-prefix statistics of every
// workload at one seed.
type expectedFile struct {
	Seed      uint64              `json:"seed"`
	Workloads map[string]simStats `json:"workloads"`
}

// expectedStats returns what expected.json pins for a workload.
func expectedStats(name string) (*simStats, error) {
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if exp.Seed != expectedSeed {
		return nil, fmt.Errorf("expected.json is for seed %d, not %d", exp.Seed, expectedSeed)
	}
	st, ok := exp.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("expected.json has no workload %s", name)
	}
	return &st, nil
}

// print writes the run for a reader, then the driver's result object
// as the last line.
func (res *runResult) print() error {
	fmt.Printf("%s  seed=%d  N=%d  messages=%d in %d blocks  traced=%v  pinned=%v\n",
		res.Workload, res.Seed, res.N, res.Messages, res.Blocks, res.Traced, res.Pinned)
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, def := range defs {
		fmt.Printf("  %-34s %14.4f %s\n", def.Name, res.Metrics[def.Name].Value, def.Unit)
	}
	fmt.Printf("  attempted=%d failed=%d fail_share=%g\n", res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	names := make([]string, 0, len(res.Samples))
	for name := range res.Samples {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Print("  samples:")
	for _, name := range names {
		fmt.Printf(" %s=%d", name, res.Samples[name])
	}
	fmt.Println()
	for _, p := range res.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", detailPrefix, detail)
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	return nil
}

// detailPrefix marks the line that carries the whole runResult, which
// the all-workloads mode reads from its children.
const detailPrefix = "detail: "

// benchDir is where expected.json and out/ live: the program runs from
// the repository root under the driver and from its own directory under
// `go run .`.
func benchDir() string {
	if _, err := os.Stat("bench/expected.json"); err == nil {
		return "bench"
	}
	return "."
}

func main() {
	workload := flag.String("workload", "", "run this workload once; empty runs all of them in child processes")
	seed := flag.Uint64("seed", expectedSeed, "seed of the traffic: pairs, message order, churn picks (the deployment is fixed)")
	seconds := flag.Float64("seconds", 15, "how long the timed pass measures")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes out/trace-<workload>.jsonl")
	runs := flag.Int("runs", 3, "untraced runs per workload when running all of them")
	out := flag.String("out", "", "result file when running all workloads (default <bench>/out/result.json)")
	compare := flag.Bool("compare", false, "compare two result files: -compare BASE.json NEW.json")
	update := flag.Bool("update-expected", false, "rewrite expected.json from this run instead of checking against it")
	flag.Parse()

	if err := dispatch(*workload, *seed, *seconds, *trace != 0, *runs, *out, *compare, *update); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(workload string, seed uint64, seconds float64, traced bool, runs int, out string, compare, update bool) error {
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if seconds <= 0 || runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	if workload == "" {
		if out == "" {
			out = benchDir() + "/out/result.json"
		}
		return runAll(seed, seconds, runs, out, update)
	}
	w, ok := findWorkload(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	var want *simStats
	if seed == expectedSeed && !update {
		var err error
		if want, err = expectedStats(w.Name); err != nil {
			return err
		}
	}
	res, err := runWorkload(w, seed, time.Duration(seconds*float64(time.Second)), traced, want)
	if err != nil {
		return err
	}
	if traced {
		path := fmt.Sprintf("%s/out/trace-%s.jsonl", benchDir(), w.Name)
		if err := writeSpans(path, res.spans); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace: %d spans in %s; self time by span name:\n", len(res.spans), path)
		self := selfTimes(res.spans)
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Printf("  self %-18s %v\n", name, self[name].Round(time.Microsecond))
		}
	}
	return res.print()
}

// environment records where the numbers were taken.
func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["modified"] = s.Value
			}
		}
	}
	return env
}
