package campaign

import (
	"fmt"
	"slices"
	"strings"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/netsim"
)

// ChaosReport is the deterministic outcome of a chaos campaign:
// identical for the same seed at every worker count.
type ChaosReport struct {
	Seed       uint64
	Nodes      int
	FinalNodes int
	FaultKinds []string

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

	Invariants
}

// Checks returns the campaign's deterministic headline counts under
// the keys a bench report carries them by.
func (r *ChaosReport) Checks() map[string]float64 {
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
func (r *ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign seed=%d\n", r.Seed)
	fmt.Fprintf(&b, "overlay: %d nodes at start, %d after churn\n", r.Nodes, r.FinalNodes)
	fmt.Fprintf(&b, "fault kinds: %s\n", strings.Join(r.FaultKinds, ", "))
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
	r.render(&b)
	return b.String()
}

// sortedIDs returns m's keys in identifier order, for deterministic
// iteration.
func sortedIDs(m map[id.ID]int) []id.ID {
	out := make([]id.ID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, id.Cmp)
	return out
}
