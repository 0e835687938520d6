package core

import (
	"fmt"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/stats"
)

// WindowConfig parameterizes formal accusations: a host formally accuses
// a peer once the peer accumulates at least M guilty verdicts among the
// last W verdicts issued against it (§3.4). The paper's evaluation uses
// W=100 with M=6 (honest reporting) or M=16 (20% collusion).
type WindowConfig struct {
	W int
	M int
}

// DefaultWindowConfig returns W=100, M=6.
func DefaultWindowConfig() WindowConfig { return WindowConfig{W: 100, M: 6} }

// Validate reports invalid parameters.
func (c WindowConfig) Validate() error {
	if c.W <= 0 {
		return fmt.Errorf("core: window size %d must be positive", c.W)
	}
	if c.M <= 0 || c.M > c.W {
		return fmt.Errorf("core: accusation threshold %d out of [1, %d]", c.M, c.W)
	}
	return nil
}

// Verdict is one thresholded blame judgment retained in the window.
type Verdict struct {
	Judged id.ID
	At     netsim.Time
	Blame  float64
	Guilty bool
}

// peerWindow is one judged peer's ring buffer of its most recent W
// verdicts, with a running guilty count.
type peerWindow struct {
	verdicts []Verdict // ring buffer
	next     int
	filled   int
	guilty   int
}

// AccusationErrorRates computes Figure 6's analytic error rates: with
// per-drop guilty probabilities pGood (innocent peer) and pFaulty
// (faulty peer), the number of guilty verdicts in a W-slot window is
// binomial, so
//
//	Pr(false positive) = Pr(W_good ≥ M)     (innocent formally accused)
//	Pr(false negative) = Pr(W_faulty < M)   (faulty peer escapes)
func AccusationErrorRates(cfg WindowConfig, pGood, pFaulty float64) (fp, fn float64, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	bGood, err := stats.NewBinomial(cfg.W, pGood)
	if err != nil {
		return 0, 0, fmt.Errorf("core: pGood: %w", err)
	}
	bFaulty, err := stats.NewBinomial(cfg.W, pFaulty)
	if err != nil {
		return 0, 0, fmt.Errorf("core: pFaulty: %w", err)
	}
	return bGood.UpperTail(cfg.M), bFaulty.LowerTail(cfg.M), nil
}

// MinimalM returns the smallest M (for the given W) driving both error
// rates at or below target, or an error if none exists. The paper finds
// M=6 for honest reporting and M=16 under 20% collusion at target 1%.
func MinimalM(w int, pGood, pFaulty, target float64) (int, error) {
	if w <= 0 {
		return 0, fmt.Errorf("core: window size %d must be positive", w)
	}
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("core: target rate %v out of (0,1)", target)
	}
	for m := 1; m <= w; m++ {
		fp, fn, err := AccusationErrorRates(WindowConfig{W: w, M: m}, pGood, pFaulty)
		if err != nil {
			return 0, err
		}
		if fp <= target && fn <= target {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: no M in [1,%d] achieves error rate %v", w, target)
}
