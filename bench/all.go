package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// resultFile is what the all-workloads mode writes and -compare reads.
type resultFile struct {
	Env       map[string]string `json:"env"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []workloadResult  `json:"workloads"`
}

type workloadResult struct {
	Name   string       `json:"name"`
	Runs   []*runResult `json:"runs"` // untraced: the end-to-end metrics
	Traced *runResult   `json:"traced"`
}

// values returns one end-to-end metric over the untraced runs.
func (w *workloadResult) values(metric string) []float64 {
	xs := make([]float64, len(w.Runs))
	for i, r := range w.Runs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}

// spread is (max-min)/median, the run-to-run spread printed beside
// every median.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return ratio(hi-lo, median(xs))
}

// runChild runs one workload in a process of its own, so that its peak
// RSS is its own, and returns the run it reports.
func runChild(self string, args ...string) (*runResult, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			var res runResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("child %v: %w", args, err)
			}
			return &res, nil
		}
	}
	return nil, fmt.Errorf("child %v printed no result", args)
}

// runAll runs every workload and prints every metric by name.
func runAll(seed uint64, seconds float64, runs int, out string, update bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: environment(), Seed: seed, Seconds: seconds}
	var problems []string
	for _, w := range workloads {
		wr := workloadResult{Name: w.Name}
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
		if update {
			args = append(args, "-update-expected")
		}
		for i := 0; i <= runs; i++ {
			traceFlag := "0"
			if i == runs {
				traceFlag = "1"
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d trace=%s\n", w.Name, i+1, runs+1, traceFlag)
			res, err := runChild(self, append(args, "-trace", traceFlag)...)
			if err != nil {
				return err
			}
			for _, p := range res.Problems {
				problems = append(problems, fmt.Sprintf("%s run %d: %s", w.Name, i+1, p))
			}
			// Same seed, same prefix: traced or not, every run must have
			// simulated the same thing.
			if len(wr.Runs) > 0 && res.Stats != wr.Runs[0].Stats {
				problems = append(problems, fmt.Sprintf("%s run %d: simulated statistics differ from run 1:\n  %+v\n  %+v", w.Name, i+1, res.Stats, wr.Runs[0].Stats))
			}
			if i == runs {
				wr.Traced = res
			} else {
				wr.Runs = append(wr.Runs, res)
			}
		}
		file.Workloads = append(file.Workloads, wr)
	}

	for _, wr := range file.Workloads {
		first := wr.Runs[0]
		fmt.Printf("\n%s  seed=%d  N=%d  %d untraced runs of %gs (median, spread=(max-min)/median), 1 traced\n",
			wr.Name, seed, first.N, len(wr.Runs), seconds)
		for _, def := range endToEnd {
			xs := wr.values(def.Name)
			fmt.Printf("  %-34s %14.4f %-6s spread %5.1f%%  bound %4.0f%%\n", def.Name, median(xs), def.Unit, 100*spread(xs), 100*def.Bound)
		}
		var attempted, failed int64
		for _, r := range append(wr.Runs, wr.Traced) {
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Printf("  %-34s %14g share  (%d of %d operations)\n", "fail_share", ratio(float64(failed), float64(attempted)), failed, attempted)
		for _, def := range perLayer {
			fmt.Printf("  %-34s %14.4f %s\n", def.Name, wr.Traced.Metrics[def.Name].Value, def.Unit)
		}
	}

	if err := writeJSON(out, file); err != nil {
		return err
	}
	fmt.Printf("\nresult written to %s\n", out)
	if update && seed == expectedSeed && len(problems) == 0 {
		exp := expectedFile{Seed: seed, Workloads: map[string]simStats{}}
		for _, wr := range file.Workloads {
			exp.Workloads[wr.Name] = wr.Runs[0].Stats
		}
		path := benchDir() + "/expected.json"
		if err := writeJSON(path, exp); err != nil {
			return err
		}
		fmt.Printf("expected statistics written to %s\n", path)
	}
	if len(problems) > 0 {
		return fmt.Errorf("output checks failed:\n%s", strings.Join(problems, "\n"))
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
