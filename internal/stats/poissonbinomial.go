package stats

import (
	"fmt"
	"math"
)

// PoissonBinomial is the distribution of the number of successes among
// independent Bernoulli trials with heterogeneous probabilities. Jump-table
// occupancy is exactly this distribution: slot (i, j) is filled with
// probability p_{i,j} (paper Eq. 1), and the occupied-slot count is the sum
// of those indicators (§3.1). core computes the occupancy moments
// directly from Eq. 1's rows; this type is the reference its tests
// compare against, bit for bit.
type PoissonBinomial struct {
	probs []float64
}

// NewPoissonBinomial builds the distribution over the given success
// probabilities. The slice is copied; each probability must lie in [0, 1].
func NewPoissonBinomial(probs []float64) (*PoissonBinomial, error) {
	if len(probs) == 0 {
		return nil, fmt.Errorf("stats: poisson binomial needs at least one trial")
	}
	cp := make([]float64, len(probs))
	for i, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("stats: trial %d probability %v out of [0,1]", i, p)
		}
		cp[i] = p
	}
	return &PoissonBinomial{probs: cp}, nil
}

// N returns the number of Bernoulli trials.
func (pb *PoissonBinomial) N() int { return len(pb.probs) }

// Mean returns the expected number of successes, Σ p_i.
func (pb *PoissonBinomial) Mean() float64 {
	var s float64
	for _, p := range pb.probs {
		s += p
	}
	return s
}

// Variance returns the exact variance, Σ p_i (1 − p_i).
func (pb *PoissonBinomial) Variance() float64 {
	var s float64
	for _, p := range pb.probs {
		s += p * (1 - p)
	}
	return s
}

// PaperMoments returns (μ, σ²) as defined in §3.1 of the paper: the mean
// and variance of the per-slot fill probabilities themselves,
//
//	μ = (1/n) Σ p_i        σ² = (1/n) Σ (p_i − μ)².
//
// These are the quantities the paper feeds into its normal approximation.
func (pb *PoissonBinomial) PaperMoments() (mu, sigma2 float64) {
	n := float64(len(pb.probs))
	mu = pb.Mean() / n
	for _, p := range pb.probs {
		d := p - mu
		sigma2 += d * d
	}
	sigma2 /= n
	return mu, sigma2
}

// NormalApprox returns the paper's normal approximation φ(μφ, σφ) to the
// occupancy count:
//
//	μφ  = ℓv·μ
//	σφ² = ℓv·μ(1−μ) − ℓv·σ²
//
// Algebraically σφ² equals the exact Poisson-binomial variance
// Σ p_i(1−p_i); the paper just expresses it through the per-slot moments.
func (pb *PoissonBinomial) NormalApprox() (Normal, error) {
	mu, sigma2 := pb.PaperMoments()
	n := float64(len(pb.probs))
	muPhi := n * mu
	varPhi := n*mu*(1-mu) - n*sigma2
	if varPhi <= 0 {
		// Degenerate distributions (all p ∈ {0,1}) have zero variance;
		// give the caller an explicit error rather than a broken Normal.
		return Normal{}, fmt.Errorf("stats: normal approximation degenerate (variance %v)", varPhi)
	}
	return Normal{Mu: muPhi, Sigma: math.Sqrt(varPhi)}, nil
}

// ExactPMF computes the exact probability mass function by dynamic
// programming in O(n²). It exists to validate the normal approximation
// (Figure 1's "analytic model vs reality" comparison) in tests; the
// experiments use the normal approximation, as the paper notes exact
// computation is intractable at scale.
func (pb *PoissonBinomial) ExactPMF() []float64 {
	pmf := make([]float64, len(pb.probs)+1)
	pmf[0] = 1
	for i, p := range pb.probs {
		// Iterate downward so each trial is counted once.
		for k := i + 1; k >= 1; k-- {
			pmf[k] = pmf[k]*(1-p) + pmf[k-1]*p
		}
		pmf[0] *= 1 - p
	}
	return pmf
}

// Sample draws an occupancy count by flipping each Bernoulli trial.
func (pb *PoissonBinomial) Sample(r Rand) int {
	var k int
	for _, p := range pb.probs {
		if r.Float64() < p {
			k++
		}
	}
	return k
}
