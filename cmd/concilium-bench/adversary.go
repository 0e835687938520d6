package main

import (
	"fmt"

	"concilium/internal/benchreport"
	"concilium/internal/campaign"
	"concilium/internal/experiments"
)

// The Adversary figure (-fig 12) runs the full adversarial campaign
// grid (strategy × attacker fraction) and reports each cell's ROC
// operating point: attacker conviction rate vs. honest
// false-conviction rate, plus the reputation fallback's quorum
// outcomes. Its checks are the per-cell rates, so the benchdiff
// -figures gate pins conviction power exactly, and the campaign's own
// invariants (ROC separation, honest-conviction bound, overlay still
// routing) gate the run itself.

// runAdversary executes the campaign, renders its operating points and
// invariant list, and returns its report entry. A failed invariant is
// an error: the figure must not land in a report looking like a
// measurement when the protocol's defenses did not hold.
func runAdversary(c figCtx) ([]benchreport.Figure, error) {
	cfg := campaign.ShortAdversaryConfig(c.seed)
	cfg.Workers = c.workers
	var rep *campaign.AdversaryReport
	allocs, bytes, err := benchreport.CountAllocs(func() (err error) {
		rep, err = campaign.RunAdversary(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !rep.Passed() {
		return nil, fmt.Errorf("adversary campaign violated invariants:\n%s", rep)
	}
	if err := c.render.table(c.w, adversaryTable(rep)); err != nil {
		return nil, err
	}
	for _, inv := range rep.Invariants {
		status := "ok"
		if !inv.OK {
			status = "FAIL"
		}
		fmt.Fprintf(c.w, "invariant [%s] %s\n", status, inv.Name)
	}
	cells := int64(len(rep.Cells))
	return []benchreport.Figure{{
		Name:   c.name,
		Checks: rep.Checks(),
		Timing: benchreport.Timing{Ops: cells, AllocsPerOp: allocs / cells, BytesPerOp: bytes / cells},
	}}, nil
}

// adversaryTable renders the campaign's operating points for text/csv
// mode: one row per (strategy, fraction) cell.
func adversaryTable(rep *campaign.AdversaryReport) experiments.Table {
	t := experiments.Table{
		Title: "Figure 12: adversarial conviction ROC operating points (strategy x attacker fraction)",
		Columns: []string{
			"strategy", "f", "attackers", "att conviction", "honest false-conv",
			"rep attacker", "rep honest", "repo rejections", "suspected",
		},
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		t.Rows = append(t.Rows, []string{
			c.Strategy,
			fmt.Sprintf("%.2f", c.Fraction),
			fmt.Sprintf("%d/%d", c.Attackers, c.Nodes),
			fmt.Sprintf("%.3f", c.Op.AttackerRate),
			fmt.Sprintf("%.3f", c.Op.HonestRate),
			fmt.Sprintf("%.3f", c.RepAttackerRate),
			fmt.Sprintf("%.3f", c.RepHonestRate),
			fmt.Sprintf("%d", c.Rejections.Total()),
			fmt.Sprintf("%d", c.Suspected),
		})
	}
	return t
}
