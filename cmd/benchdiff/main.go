// Command benchdiff gates one bench report against a baseline.
//
// Usage:
//
//	benchdiff [-figures name1,name2] [-canonical] baseline.json current.json
//
// The exit status is the gate. By default it fails when a baseline
// figure vanished, when any figure's deterministic check values differ
// from the baseline's (the baseline is generated at the same seed, so
// that is a behaviour change), or when a count — allocs/op or bytes/op
// of a figure whose run allocated more than benchreport.MinAllocs in
// all, bytes/node always — grew by more than
// benchreport.MaxCountRegress, or fell by more than that below its pin
// (the baseline is stale and must be re-pinned, or it would pass the
// same growth back unseen). A count the current report leaves at zero
// was not measured and is not compared. Added figures are reported
// only. No clock-derived value is read: bench/ alone measures time.
//
// -canonical replaces the gate with a byte compare of the two reports'
// deterministic cores — the worker-count invariance check. Counts are
// not compared there: a parallel run legitimately allocates more than a
// serial one.
//
// -figures name1,name2 restricts both reports to the named figures
// before any comparison, so a partial run (e.g. the scale-smoke job's
// scale-only report) can be gated against a full baseline without the
// baseline's other figures counting as MISSING. Naming a figure absent
// from both reports is an error — it catches a stale CI invocation.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"concilium/internal/benchreport"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	canonical := fs.Bool("canonical", false, "only byte-compare the two reports' deterministic cores")
	figures := fs.String("figures", "", "comma-separated figure names; restrict both reports to these before comparing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdiff [flags] baseline.json current.json")
	}
	base, err := benchreport.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := benchreport.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	if *figures != "" {
		if err := restrictFigures(base, cur, *figures); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "baseline %s (seed %d, %s/%s, %d workers) vs current %s (seed %d, %s/%s, %d workers)\n",
		fs.Arg(0), base.Seed, base.Env.GOOS, base.Env.GOARCH, base.Env.Workers,
		fs.Arg(1), cur.Seed, cur.Env.GOOS, cur.Env.GOARCH, cur.Env.Workers)

	if *canonical {
		same, err := canonicalEqual(base, cur)
		if err != nil {
			return err
		}
		if !same {
			fmt.Fprintf(w, "CANONICAL cores differ\n")
			return fmt.Errorf("gate failed")
		}
		fmt.Fprintf(w, "canonical cores identical\n")
		return nil
	}

	res := benchreport.Compare(base, cur)
	for _, name := range res.Missing {
		fmt.Fprintf(w, "MISSING    %s (in baseline, absent from current)\n", name)
	}
	for _, name := range res.Added {
		fmt.Fprintf(w, "added      %s (no baseline)\n", name)
	}
	for _, name := range res.ChecksDiverged {
		fmt.Fprintf(w, "CHECKS DIVERGED %s\n", name)
	}
	for _, d := range res.Regressions {
		fmt.Fprintf(w, "COUNT REGRESSION %-16s %d -> %d %s (%.2fx, tolerance %.2fx)\n",
			d.Figure, d.Base, d.Cur, d.Metric, d.Ratio, 1+benchreport.MaxCountRegress)
	}
	for _, d := range res.Stale {
		fmt.Fprintf(w, "STALE PIN  %-16s %d -> %d %s (%.2fx, tolerance %.2fx): re-pin %s from this report\n",
			d.Figure, d.Base, d.Cur, d.Metric, d.Ratio, 1-benchreport.MaxCountRegress, fs.Arg(0))
	}
	if !res.OK() {
		return fmt.Errorf("gate failed")
	}
	fmt.Fprintf(w, "gate passed\n")
	return nil
}

// restrictFigures drops every figure not named in the comma-separated
// list from both reports, keeping declaration order. A name matched by
// neither report is an error: the invoking CI job asked to gate a
// figure nobody produces.
func restrictFigures(base, cur *benchreport.Report, list string) error {
	want := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return fmt.Errorf("-figures: empty figure name in %q", list)
		}
		want[name] = false
	}
	keep := func(r *benchreport.Report) {
		kept := r.Figures[:0]
		for _, f := range r.Figures {
			if _, ok := want[f.Name]; ok {
				want[f.Name] = true
				kept = append(kept, f)
			}
		}
		r.Figures = kept
	}
	keep(base)
	keep(cur)
	for name, seen := range want {
		if !seen {
			return fmt.Errorf("-figures: %q matches no figure in either report", name)
		}
	}
	return nil
}

// canonicalEqual byte-compares the two reports' deterministic cores.
func canonicalEqual(a, b *benchreport.Report) (bool, error) {
	var ab, bb bytes.Buffer
	if err := benchreport.Encode(&ab, a.Canonical()); err != nil {
		return false, err
	}
	if err := benchreport.Encode(&bb, b.Canonical()); err != nil {
		return false, err
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes()), nil
}
