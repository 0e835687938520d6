package campaign

import (
	"strings"
	"sync"
	"testing"

	"concilium/internal/metrics"
)

// adversaryRuns memoizes short adversarial-campaign reports by (seed,
// workers). A campaign is a pure function of both, so tests that assert different
// properties of the same configuration share one run; reports are only
// read.
var adversaryRuns struct {
	sync.Mutex
	runs map[[2]uint64]*campaignRun
}

type campaignRun struct {
	once sync.Once
	rep  *AdversaryReport
	err  error
}

// sharedWorkers is the pool size of the runs several tests share.
const sharedWorkers = 4

// adversaryCampaign returns the short adversarial campaign's report at
// seed with the given worker count, running it on first request.
func adversaryCampaign(t *testing.T, seed uint64, workers int) *AdversaryReport {
	t.Helper()
	adversaryRuns.Lock()
	if adversaryRuns.runs == nil {
		adversaryRuns.runs = make(map[[2]uint64]*campaignRun)
	}
	key := [2]uint64{seed, uint64(workers)}
	r := adversaryRuns.runs[key]
	if r == nil {
		r = &campaignRun{}
		adversaryRuns.runs[key] = r
	}
	adversaryRuns.Unlock()
	r.once.Do(func() {
		cfg := ShortAdversaryConfig(seed)
		cfg.Workers = workers
		r.rep, r.err = RunAdversary(cfg)
	})
	if r.err != nil {
		t.Fatalf("RunAdversary seed=%d workers=%d: %v", seed, workers, r.err)
	}
	return r.rep
}

// TestCampaignInvariants runs the short campaign across the CI seed
// matrix and requires every fixed-order invariant to hold.
func TestCampaignInvariants(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(name("seed", seed), func(t *testing.T) {
			t.Parallel()
			rep := adversaryCampaign(t, seed, sharedWorkers)
			for _, inv := range rep.Invariants {
				if !inv.OK {
					t.Errorf("invariant %s failed: %s", inv.Name, inv.Detail)
				}
			}
			if !rep.Passed() {
				t.Errorf("campaign failed:\n%s", rep.String())
			}
			if len(rep.Cells) != len(rep.Strategies)*len(rep.Fractions) {
				t.Fatalf("cell grid: got %d cells", len(rep.Cells))
			}
		})
	}
}

// TestCampaignWorkerInvariance byte-compares the rendered report across
// worker counts: the campaign must be a pure function of its seed.
func TestCampaignWorkerInvariance(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		seed := seed
		t.Run(name("seed", seed), func(t *testing.T) {
			t.Parallel()
			var want string
			var wantMetrics metrics.Snapshot
			for _, workers := range []int{1, sharedWorkers, 8} {
				rep := adversaryCampaign(t, seed, workers)
				got := rep.String()
				if want == "" {
					want, wantMetrics = got, rep.Metrics
					continue
				}
				if got != want {
					t.Errorf("workers=%d: report differs from workers=1", workers)
				}
				if !rep.Metrics.Equal(wantMetrics) {
					t.Errorf("workers=%d: merged metrics differ from workers=1", workers)
				}
			}
		})
	}
}

// TestCampaignROCShape spot-checks the structure of the per-cell
// curves: monotone non-increasing rates as thresholds tighten, and the
// operating point present on each curve.
func TestCampaignROCShape(t *testing.T) {
	rep := adversaryCampaign(t, 7, sharedWorkers)
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if len(c.Curve) == 0 {
			t.Errorf("%s f=%.2f: empty curve", c.Strategy, c.Fraction)
			continue
		}
		for j := 1; j < len(c.Curve); j++ {
			if c.Curve[j].Threshold <= c.Curve[j-1].Threshold {
				t.Errorf("%s f=%.2f: thresholds not ascending at %d", c.Strategy, c.Fraction, j)
			}
			if c.Strategy != "eclipse" {
				// Window and quorum sweeps count exceedances, so rates can
				// only fall as the threshold rises.
				if c.Curve[j].AttackerRate > c.Curve[j-1].AttackerRate ||
					c.Curve[j].HonestRate > c.Curve[j-1].HonestRate {
					t.Errorf("%s f=%.2f: rates not monotone at threshold %.0f",
						c.Strategy, c.Fraction, c.Curve[j].Threshold)
				}
			}
		}
		found := false
		for _, p := range c.Curve {
			if p == c.Op {
				found = true
			}
		}
		if !found {
			t.Errorf("%s f=%.2f: operating point not on curve", c.Strategy, c.Fraction)
		}
	}
}

// TestMetricsHygiene rejects nondeterministic series from the
// campaign's canonical snapshot and checks the repository hardening
// counters surfaced.
func TestMetricsHygiene(t *testing.T) {
	rep := adversaryCampaign(t, 1, sharedWorkers)
	check := func(kind, name string) {
		if metrics.NonDeterministic(name) {
			t.Errorf("canonical snapshot leaked nondeterministic %s %q", kind, name)
		}
	}
	for name := range rep.Metrics.Counters {
		check("counter", name)
	}
	for name := range rep.Metrics.Gauges {
		check("gauge", name)
	}
	for name := range rep.Metrics.Histograms {
		check("histogram", name)
	}
	var total uint64
	for _, name := range []string{"dht/chains_rate_limited", "dht/chains_duplicate", "dht/chains_stale"} {
		total += rep.Metrics.Counters[name]
	}
	if total == 0 {
		t.Error("campaign exercised no repository hardening counters")
	}
}

func TestAdversaryConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*AdversaryConfig)
		want   string
	}{
		{"valid", func(*AdversaryConfig) {}, ""},
		{"malicious fraction", func(c *AdversaryConfig) { c.System.MaliciousFraction = 0.1 }, "malicious fraction"},
		{"no fractions", func(c *AdversaryConfig) { c.Fractions = nil }, "no attacker fractions"},
		{"fraction out of range", func(c *AdversaryConfig) { c.Fractions = []float64{0.5, 1.0} }, "fractions must ascend"},
		{"fractions not ascending", func(c *AdversaryConfig) { c.Fractions = []float64{0.10, 0.05} }, "fractions must ascend"},
		{"zero messages", func(c *AdversaryConfig) { c.Messages = 0 }, "messages"},
		{"rounds exceed messages", func(c *AdversaryConfig) { c.AttackRounds = c.Messages + 1 }, "attack rounds"},
		{"too few replicas", func(c *AdversaryConfig) { c.Replicas = 2 }, "replicas"},
		{"zero quorum", func(c *AdversaryConfig) { c.SanctionQuorum = 0 }, "sanction quorum"},
		{"drop prob", func(c *AdversaryConfig) { c.DropProb = 1.5 }, "drop probability"},
		{"drop period", func(c *AdversaryConfig) { c.DropPeriod = 1 }, "drop period"},
		{"bad limits", func(c *AdversaryConfig) { c.Limits.MaxPerKey = -1 }, "per-key cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ShortAdversaryConfig(1)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

func name(prefix string, seed uint64) string {
	return prefix + "=" + string(rune('0'+seed/10)) + string(rune('0'+seed%10))
}
