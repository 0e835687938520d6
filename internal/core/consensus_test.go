package core

import (
	"testing"
)

func TestConsensusDefenseBeatsStandardUnderSuppression(t *testing.T) {
	t.Parallel()
	// The extension's headline: under suppression at c ≤ 30%, the
	// consensus-referenced test has a strictly lower combined error
	// than the self-referenced test, because the median reference is
	// immune to minority suppression.
	for _, c := range []float64{0.2, 0.3} {
		s := DensityScenario{N: 1131, Collusion: c, Suppression: true}
		standard, err := OptimalGamma(s, 1.0001, 3, 150)
		if err != nil {
			t.Fatal(err)
		}
		best := DensityErrorRates{FalsePositive: 1, FalseNegative: 1}
		for g := 1.01; g < 3; g += 0.01 {
			r, err := ConsensusErrorRates(s, g)
			if err != nil {
				t.Fatal(err)
			}
			if r.Sum() < best.Sum() {
				best = r
			}
		}
		if best.Sum() >= standard.Sum() {
			t.Errorf("c=%v: consensus sum %v not better than standard %v",
				c, best.Sum(), standard.Sum())
		}
	}
}

func TestConsensusErrorRatesValidation(t *testing.T) {
	t.Parallel()
	if _, err := ConsensusErrorRates(DensityScenario{N: 1, Collusion: 0.2}, 1.2); err == nil {
		t.Error("invalid scenario accepted")
	}
	if _, err := ConsensusErrorRates(DensityScenario{N: 100, Collusion: 0.2}, 0); err == nil {
		t.Error("γ=0 accepted")
	}
	// Majority collusion breaks the median: the reference collapses to
	// the colluders' population and the defense degrades (documented
	// behavior, not an error).
	r, err := ConsensusErrorRates(DensityScenario{N: 1131, Collusion: 0.6, Suppression: true}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if r.FalseNegative < 0.3 {
		t.Errorf("majority collusion FN = %v; expected the defense to fail open", r.FalseNegative)
	}
}
