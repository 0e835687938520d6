package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict classifies one end-to-end metric of one workload, base runs
// against new runs. A metric whose runs spread wider than its bound
// cannot be called unchanged or regressed while the two sets of runs
// overlap: it is unresolved. Improved needs every new run better than
// every base run and the medians apart by more than the bound, because
// two sets of one commit taken minutes apart differ by up to 22% here.
func verdict(def metricDef, base, cur []float64) string {
	// Orient both sets so that lower is better.
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	orient := func(xs []float64) (lo, hi float64) {
		lo, hi = sign*xs[0], sign*xs[0]
		for _, x := range xs {
			lo, hi = min(lo, sign*x), max(hi, sign*x)
		}
		return lo, hi
	}
	baseLo, baseHi := orient(base)
	curLo, curHi := orient(cur)
	overlap := curHi >= baseLo && baseHi >= curLo
	wide := max(spread(base), spread(cur)) > def.Bound
	worse := sign * ratio(median(cur)-median(base), median(base))
	switch {
	case curHi < baseLo && -worse > def.Bound:
		return "improved"
	case wide && overlap:
		return "unresolved"
	case worse > def.Bound:
		return "regressed"
	}
	return "unchanged"
}

// compareFiles prints, per workload and end-to-end metric, base, new,
// their ratio, the bound and the verdict; any regression is an error.
func compareFiles(basePath, curPath string) error {
	base, err := readResult(basePath)
	if err != nil {
		return err
	}
	cur, err := readResult(curPath)
	if err != nil {
		return err
	}
	fmt.Printf("base %s (commit %s)  new %s (commit %s)\n", basePath, base.Env["commit"], curPath, cur.Env["commit"])
	regressed := 0
	for _, bw := range base.Workloads {
		i := slices.IndexFunc(cur.Workloads, func(w workloadResult) bool { return w.Name == bw.Name })
		if i < 0 {
			return fmt.Errorf("%s has no workload %s", curPath, bw.Name)
		}
		cw := cur.Workloads[i]
		fmt.Printf("\n%s\n  %-22s %14s %14s %8s %7s  %s\n", bw.Name, "metric", "base", "new", "new/base", "bound", "verdict")
		for _, def := range endToEnd {
			b, c := bw.values(def.Name), cw.values(def.Name)
			if len(b) == 0 || len(c) == 0 {
				return fmt.Errorf("%s: no runs to compare", bw.Name)
			}
			v := verdict(def, b, c)
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("  %-22s %14.4f %14.4f %8.3f %6.0f%%  %s\n", def.Name, median(b), median(c), ratio(median(c), median(b)), 100*def.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
