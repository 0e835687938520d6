package core

import (
	"testing"
)

func TestConsensusNMedian(t *testing.T) {
	t.Parallel()
	got, err := ConsensusN([]float64{100, 900, 500})
	if err != nil || got != 500 {
		t.Errorf("median = %v (%v), want 500", got, err)
	}
	got, err = ConsensusN([]float64{100, 200, 300, 400})
	if err != nil || got != 250 {
		t.Errorf("even median = %v (%v), want 250", got, err)
	}
	if _, err := ConsensusN(nil); err == nil {
		t.Error("empty estimates accepted")
	}
	if _, err := ConsensusN([]float64{100, -5}); err == nil {
		t.Error("negative estimate accepted")
	}
}

func TestConsensusNRobustToMinorityCorruption(t *testing.T) {
	t.Parallel()
	// 4 of 10 estimates wildly suppressed: the median barely moves.
	honest := []float64{980, 990, 1000, 1010, 1020, 1030}
	attacked := append([]float64{10, 10, 10, 10}, honest...)
	got, err := ConsensusN(attacked)
	if err != nil {
		t.Fatal(err)
	}
	if got < 900 {
		t.Errorf("median %v moved by minority corruption", got)
	}
}

func TestConsensusDensityTestCheck(t *testing.T) {
	t.Parallel()
	test, err := NewConsensusDensityTest(1.2)
	if err != nil {
		t.Fatal(err)
	}
	// μφ(1131) ≈ 36: a 35-slot table passes at γ=1.2, a 20-slot fails.
	ok, err := test.Check(35, 1131)
	if err != nil || !ok {
		t.Errorf("honest-density table rejected: %v (%v)", ok, err)
	}
	ok, err = test.Check(20, 1131)
	if err != nil || ok {
		t.Errorf("sparse table accepted: %v (%v)", ok, err)
	}
	if _, err := test.Check(30, 1); err == nil {
		t.Error("tiny consensus population accepted")
	}
	if _, err := NewConsensusDensityTest(1); err == nil {
		t.Error("γ=1 accepted")
	}
}

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
