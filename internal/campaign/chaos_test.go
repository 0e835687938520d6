package campaign

import (
	"strings"
	"testing"

	"concilium/internal/metrics"
)

func TestChaosConfigValidate(t *testing.T) {
	t.Parallel()
	if err := ShortChaosConfig(1).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := LongChaosConfig(1).Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*ChaosConfig){
		func(c *ChaosConfig) { c.Replicas = 2 },
		func(c *ChaosConfig) { c.ReplicaOutage = 0 },
		// 3 concurrent outages of 5 replicas can leave a key below
		// quorum; the config must refuse it.
		func(c *ChaosConfig) { c.ReplicaOutage = 3 },
		func(c *ChaosConfig) { c.MessagesPerPhase = 0 },
		func(c *ChaosConfig) { c.ChurnRounds = -1 },
		func(c *ChaosConfig) { c.ProbeLoss = 0 },
		func(c *ChaosConfig) { c.ProbeLoss = 1 },
		func(c *ChaosConfig) { c.SilentLeaves = 0 },
		func(c *ChaosConfig) { c.Warmup = 0 },
		func(c *ChaosConfig) { c.Pace = 0 },
		func(c *ChaosConfig) { c.System.Blame.MinProbesPerLink = 0 },
		func(c *ChaosConfig) { c.System.OverlayFraction = 0 },
	}
	for i, mutate := range mutations {
		cfg := ShortChaosConfig(1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCampaignInvariantsHold(t *testing.T) {
	t.Parallel()
	rep, err := RunChaos(ShortChaosConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("invariants failed:\n%s", rep)
	}
	// The campaign must genuinely compose fault kinds, not just list
	// them: each episode leaves observable tracks.
	if len(rep.FaultKinds) < 4 {
		t.Errorf("only %d fault kinds composed", len(rep.FaultKinds))
	}
	if rep.Counters.ProbesLost == 0 {
		t.Error("probe-loss episode ate no sweeps")
	}
	if rep.Counters.ProbesSuppressed == 0 {
		t.Error("silence/staleness episodes suppressed no sweeps")
	}
	if rep.StaleSends == 0 {
		t.Error("stale-evidence episode routed no traffic")
	}
	if rep.FinalNodes == rep.Nodes {
		t.Error("churn episode changed no membership")
	}
	if rep.Counters.GhostProbesStopped == 0 {
		t.Error("departed nodes' probe loops were not stopped")
	}
	if rep.Sent == 0 || rep.Diagnosed == 0 {
		t.Errorf("campaign routed %d messages, diagnosed %d", rep.Sent, rep.Diagnosed)
	}
	if rep.ChainsPublished == 0 {
		t.Error("no accusation chains published; durability invariant was vacuous")
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	render := func(workers int) string {
		cfg := ShortChaosConfig(9)
		cfg.Workers = workers
		rep, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	w1 := render(1)
	w1again := render(1)
	w4 := render(4)
	w16 := render(16)
	if w1 != w1again {
		t.Errorf("same seed, same workers, different reports:\n%s\nvs\n%s", w1, w1again)
	}
	if w1 != w4 {
		t.Errorf("workers=1 vs workers=4 reports differ:\n%s\nvs\n%s", w1, w4)
	}
	if w1 != w16 {
		t.Errorf("workers=1 vs workers=16 reports differ:\n%s\nvs\n%s", w1, w16)
	}
}

func TestCampaignSeedChangesOutcome(t *testing.T) {
	t.Parallel()
	a, err := RunChaos(ShortChaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(ShortChaosConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Error("different seeds produced identical campaigns")
	}
}

func TestReportRendering(t *testing.T) {
	t.Parallel()
	var r ChaosReport
	if r.Passed() {
		t.Error("report with no invariants counted as passed")
	}
	r.addInvariant("a", true, "fine")
	if !r.Passed() {
		t.Error("all-ok invariants not passed")
	}
	r.addInvariant("b", false, "broke")
	if r.Passed() {
		t.Error("failed invariant ignored")
	}
	s := r.String()
	if !strings.Contains(s, "[FAIL] b") || !strings.Contains(s, "result: FAIL") {
		t.Errorf("failure not rendered:\n%s", s)
	}
}

func TestCampaignMetricsSnapshot(t *testing.T) {
	t.Parallel()
	rep, err := RunChaos(ShortChaosConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot must be canonical: wall-clock series are stripped so
	// the report stays deterministic for a fixed seed.
	for _, names := range [][]string{
		rep.Metrics.CounterNames(), rep.Metrics.GaugeNames(), rep.Metrics.HistogramNames(),
	} {
		for _, name := range names {
			if metrics.NonDeterministic(name) {
				t.Errorf("non-deterministic series %q in campaign metrics", name)
			}
		}
	}
	// Every instrumented subsystem must have left tracks.
	for _, c := range []string{
		"core/messages_sent", "core/probe_sweeps", "wire/message_bytes",
		"wire/ack_bytes", "netsim/link_failures", "netsim/packets_delivered",
		"dht/puts", "dht/chains_published", "wire/accusation_bytes",
		"tomography/archive_records",
	} {
		if rep.Metrics.Counters[c] == 0 {
			t.Errorf("counter %q is zero after a full campaign", c)
		}
	}
	if rep.Metrics.Gauges["netsim/links_down_highwater"] == 0 {
		t.Error("link-failure highwater gauge never set")
	}
	if rep.Metrics.Histograms["core/accusation_chain_len"].Count == 0 && rep.Metrics.Histograms["core/probe_rtt_ns"].Count == 0 {
		t.Errorf("no histogram observations recorded: %v", rep.Metrics.HistogramNames())
	}
	// Cross-check: the metrics agree with the report's own counters.
	if got := rep.Metrics.Counters["core/messages_sent"]; got != uint64(rep.Sent) {
		t.Errorf("core/messages_sent = %d, report.Sent = %d", got, rep.Sent)
	}
	if got := rep.Metrics.Counters["dht/chains_published"]; got != uint64(rep.ChainsPublished) {
		t.Errorf("dht/chains_published = %d, report.ChainsPublished = %d", got, rep.ChainsPublished)
	}
}

// TestHistogramsFitCanonicalRuns requires every histogram of the
// campaign reports a bench report carries (chaos-short at seed 42, as
// BENCH_baseline.json pins it, and the adversary campaign) to hold at
// most 5% of its samples outside its bounds. A histogram whose samples
// pile up past its last bound says nothing about their spread.
func TestHistogramsFitCanonicalRuns(t *testing.T) {
	t.Parallel()
	chaos, err := RunChaos(ShortChaosConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	for run, snap := range map[string]metrics.Snapshot{
		"chaos-short": chaos.Metrics,
		"adversary":   adversaryCampaign(t, 1, sharedWorkers).Metrics,
	} {
		for name, h := range snap.Histograms {
			if h.Count == 0 {
				continue
			}
			// The first bucket holds every sample at or below the first
			// bound: underflow, unless that bound is 0, the floor of a
			// count, where it holds exactly the zeros.
			out := h.Counts[len(h.Bounds)]
			if h.Bounds[0] > 0 {
				out += h.Counts[0]
			}
			if share := float64(out) / float64(h.Count); share > 0.05 {
				t.Errorf("%s: %s puts %d of %d samples (%.1f%%) outside its bounds %v: %v",
					run, name, out, h.Count, 100*share, h.Bounds, h.Counts)
			}
		}
	}
}
