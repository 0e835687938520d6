package adversary

import (
	"fmt"
	"strings"

	"concilium/internal/metrics"
)

// Invariant is one checked attack-resistance contract.
type Invariant struct {
	Name   string
	OK     bool
	Detail string
}

// ROCPoint is one operating point of a cell's conviction curve: at the
// given decision threshold, the fraction of attackers convicted and
// the fraction of honest hosts falsely convicted.
type ROCPoint struct {
	Threshold    float64
	AttackerRate float64
	HonestRate   float64
}

// CellRejections breaks down the repository's hardening rejections
// observed in one cell.
type CellRejections struct {
	RateLimited uint64
	Duplicate   uint64
	Stale       uint64
}

// Total returns the number of hardening rejections of any kind.
func (r CellRejections) Total() uint64 { return r.RateLimited + r.Duplicate + r.Stale }

// CellResult is the deterministic outcome of one (strategy, fraction)
// cell.
type CellResult struct {
	Strategy string
	Fraction float64

	Nodes     int
	Attackers int

	Sent, Delivered int
	Diagnosed       int
	// AttackerDrops counts traffic messages an attacker provably dropped
	// while stewarding — the cell's ground-truth misbehavior volume,
	// which the conviction rates are measured against.
	AttackerDrops      int
	Convictions        int
	ChainsPublished    int
	PublishErrors      int
	GenuineRateLimited int
	RebalanceErrors    int
	VoteErrors         int

	Rejections CellRejections
	Suspected  int

	// Curve is the strategy's conviction ROC, threshold-ascending; Op
	// is the configured operating point (the window's M, the sanction
	// quorum, or the density γ, depending on the strategy).
	Curve []ROCPoint
	Op    ROCPoint

	// RepAttackerRate and RepHonestRate are the reputation fallback's
	// quorum outcomes: the fraction of attackers (resp. honest hosts)
	// that trusted no-confidence votes declare a poor peer.
	RepAttackerRate float64
	RepHonestRate   float64

	// Panic records a recovered cell panic; empty means none.
	Panic string
}

// Report is the deterministic outcome of an adversarial campaign:
// identical for the same seed at every worker count.
type Report struct {
	Seed       uint64
	Strategies []string
	Fractions  []float64
	Cells      []CellResult

	// Metrics merges every cell's canonical snapshot in cell order; the
	// wall-clock series are stripped, so the field is a pure function
	// of the seed like the rest of the report.
	Metrics metrics.Snapshot

	Invariants []Invariant
}

func (r *Report) addInvariant(name string, ok bool, detail string) {
	r.Invariants = append(r.Invariants, Invariant{Name: name, OK: ok, Detail: detail})
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool {
	if len(r.Invariants) == 0 {
		return false
	}
	for _, inv := range r.Invariants {
		if !inv.OK {
			return false
		}
	}
	return true
}

// Cell returns the result for (strategy, fraction), or nil.
func (r *Report) Cell(strategy string, fraction float64) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].Strategy == strategy && r.Cells[i].Fraction == fraction {
			return &r.Cells[i]
		}
	}
	return nil
}

// Checks returns every cell's operating point (attacker and honest
// conviction rates, keyed att_/hon_<strategy>_f<percent>) plus the cell
// count and the invariant verdict, under the keys a bench report
// carries them by.
func (r *Report) Checks() map[string]float64 {
	checks := map[string]float64{
		"cells":         float64(len(r.Cells)),
		"invariants_ok": 0,
	}
	if r.Passed() {
		checks["invariants_ok"] = 1
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		key := fmt.Sprintf("%s_f%02.0f", c.Strategy, 100*c.Fraction)
		checks["att_"+key] = c.Op.AttackerRate
		checks["hon_"+key] = c.Op.HonestRate
	}
	return checks
}

// String renders the report. The output is a pure function of the
// campaign seed.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adversary campaign seed=%d\n", r.Seed)
	fmt.Fprintf(&b, "grid: %d strategies x %d fractions = %d cells\n",
		len(r.Strategies), len(r.Fractions), len(r.Cells))
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(&b, "%s f=%.2f: %d/%d attackers, traffic %d sent %d delivered %d diagnosed %d att-drops, %d chains\n",
			c.Strategy, c.Fraction, c.Attackers, c.Nodes, c.Sent, c.Delivered, c.Diagnosed, c.AttackerDrops, c.ChainsPublished)
		fmt.Fprintf(&b, "  conviction@op(th=%g): attacker=%.3f honest=%.3f; reputation: attacker=%.3f honest=%.3f\n",
			c.Op.Threshold, c.Op.AttackerRate, c.Op.HonestRate, c.RepAttackerRate, c.RepHonestRate)
		fmt.Fprintf(&b, "  repo: rate-limited=%d duplicate=%d stale=%d genuine-capped=%d; suspected=%d\n",
			c.Rejections.RateLimited, c.Rejections.Duplicate, c.Rejections.Stale,
			c.GenuineRateLimited, c.Suspected)
		if c.Panic != "" {
			fmt.Fprintf(&b, "  PANIC: %s\n", c.Panic)
		}
	}
	fmt.Fprintf(&b, "metrics: %d counters, %d gauges, %d histograms (canonical); repo rejections: rl=%d dup=%d stale=%d\n",
		len(r.Metrics.Counters), len(r.Metrics.Gauges), len(r.Metrics.Histograms),
		r.Metrics.Counters["dht/chains_rate_limited"], r.Metrics.Counters["dht/chains_duplicate"],
		r.Metrics.Counters["dht/chains_stale"])
	fmt.Fprintf(&b, "invariants:\n")
	for _, inv := range r.Invariants {
		status := "ok"
		if !inv.OK {
			status = "FAIL"
		}
		if inv.Detail != "" {
			fmt.Fprintf(&b, "  [%s] %-28s %s\n", status, inv.Name, inv.Detail)
		} else {
			fmt.Fprintf(&b, "  [%s] %s\n", status, inv.Name)
		}
	}
	if r.Passed() {
		fmt.Fprintf(&b, "result: PASS\n")
	} else {
		fmt.Fprintf(&b, "result: FAIL\n")
	}
	return b.String()
}
