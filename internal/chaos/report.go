package chaos

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/netsim"
)

// Invariant is one checked degradation contract.
type Invariant struct {
	Name   string
	OK     bool
	Detail string
}

// Report is the deterministic outcome of a campaign: identical for the
// same seed at every worker count.
type Report struct {
	Seed       uint64
	Nodes      int
	FinalNodes int
	FaultKinds []string

	// AdversaryMarked is how many tail nodes the AdversaryFraction knob
	// marked as droppers; 0 when the knob is off.
	AdversaryMarked int

	Sent, Delivered                            int
	NodeDrops, LinkDrops, AckDrops, ChurnDrops int
	Diagnosed, Convictions, NetworkBlamed      int
	HonestConvictions, DepartedConvictions     int
	StaleSends, StaleConvictions               int
	ChainsPublished, ChainsFetched             int
	PublishErrors, PutQuorumLost               int
	RoutingViolations, DensityViolations       int
	RebalanceErrors                            int
	DownLinks, InjectorTarget, InjectorDeficit int

	Counters core.SystemCounters
	Injector netsim.InjectorStats

	// Metrics is the campaign's canonical metrics snapshot — the
	// wall-clock series are stripped, so the field is a pure function of
	// the seed like the rest of the report.
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

// Checks returns the campaign's deterministic headline counts under
// the keys a bench report carries them by.
func (r *Report) Checks() map[string]float64 {
	checks := map[string]float64{
		"sent":           float64(r.Sent),
		"delivered":      float64(r.Delivered),
		"convictions":    float64(r.Convictions),
		"chains_fetched": float64(r.ChainsFetched),
		"invariants_ok":  0,
	}
	if r.Passed() {
		checks["invariants_ok"] = 1
	}
	return checks
}

// String renders the report. The output is a pure function of the
// campaign seed — reproduction instructions live in DESIGN.md §7.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign seed=%d\n", r.Seed)
	fmt.Fprintf(&b, "overlay: %d nodes at start, %d after churn\n", r.Nodes, r.FinalNodes)
	fmt.Fprintf(&b, "fault kinds: %s\n", strings.Join(r.FaultKinds, ", "))
	// Rendered only when the knob is on, so reports from knobless
	// configs stay byte-identical to the pre-knob engine.
	if r.AdversaryMarked > 0 {
		fmt.Fprintf(&b, "adversaries: %d tail droppers marked\n", r.AdversaryMarked)
	}
	fmt.Fprintf(&b, "traffic: %d sent, %d delivered+acked\n", r.Sent, r.Delivered)
	fmt.Fprintf(&b, "drops: %d node, %d link, %d ack, %d churn\n",
		r.NodeDrops, r.LinkDrops, r.AckDrops, r.ChurnDrops)
	fmt.Fprintf(&b, "diagnosis: %d diagnosed, %d convictions (%d honest, %d departed), %d network-blamed\n",
		r.Diagnosed, r.Convictions, r.HonestConvictions, r.DepartedConvictions, r.NetworkBlamed)
	fmt.Fprintf(&b, "stale episode: %d sends, %d convictions\n", r.StaleSends, r.StaleConvictions)
	fmt.Fprintf(&b, "accusations: %d published, %d fetched, %d publish errors, %d sub-quorum writes\n",
		r.ChainsPublished, r.ChainsFetched, r.PublishErrors, r.PutQuorumLost)
	fmt.Fprintf(&b, "degradation counters: probes lost=%d suppressed=%d, ghost probes stopped=%d, churn drops=%d, chains unavailable=%d\n",
		r.Counters.ProbesLost, r.Counters.ProbesSuppressed, r.Counters.GhostProbesStopped,
		r.Counters.ChurnDrops, r.Counters.ChainsUnavailable)
	fmt.Fprintf(&b, "injector: target=%d down=%d deficit=%d reinjected=%d saturated-skips=%d\n",
		r.InjectorTarget, r.DownLinks, r.InjectorDeficit, r.Injector.Reinjected, r.Injector.SaturatedSkips)
	fmt.Fprintf(&b, "metrics: %d counters, %d gauges, %d histograms (canonical); wire bytes: msg=%d ack=%d probe=%d accusation=%d\n",
		len(r.Metrics.Counters), len(r.Metrics.Gauges), len(r.Metrics.Histograms),
		r.Metrics.Counters["wire/message_bytes"], r.Metrics.Counters["wire/ack_bytes"],
		r.Metrics.Counters["wire/probe_bytes"], r.Metrics.Counters["wire/accusation_bytes"])
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

// sortedIDs returns m's keys in identifier order, for deterministic
// iteration.
func sortedIDs(m map[id.ID]int) []id.ID {
	out := make([]id.ID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}
