// Package core implements the Concilium diagnostic protocol itself
// (§3): validation of self-reported routing state (jump-table and
// leaf-set density tests with their false-positive/negative analytics),
// the fuzzy-logic blame engine over archived tomographic data, verdict
// windows and formal accusations, forwarding commitments, and the
// recursive stewardship/revision machinery that moves blame to the true
// fault point.
package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"concilium/internal/id"
	"concilium/internal/parexec"
	"concilium/internal/stats"
)

// The analytic model of jump-table occupancy from §3.1, over this
// package's identifier space of ℓ = id.Digits rows and v = id.Base
// columns. In an overlay of n nodes with random identifiers, the slot
// at row i (0-indexed) is filled with probability
//
//	p_i = 1 − [1 − (1/v)^(i+1)]^(n−1)        (Eq. 1)
//
// and total occupancy follows a Poisson binomial over the ℓ·v slots,
// approximated by the normal φ(μφ, σφ).

// slots is ℓ·v, the table size.
const slots = id.Digits * id.Base

// FillProb returns Eq. 1 for 0-indexed row i with n total overlay nodes.
func FillProb(row, n int) float64 {
	if n <= 1 || row < 0 || row >= id.Digits {
		return 0
	}
	p := math.Pow(1/float64(id.Base), float64(row+1))
	return 1 - math.Pow(1-p, float64(n-1))
}

// occupancyMoments returns the paper's per-slot moments of Eq. 1's
// ℓ·v fill probabilities,
//
//	μ = (1/ℓv) Σ p        σ² = (1/ℓv) Σ (p − μ)²,
//
// and the sum Σ p itself. Each row's probability is evaluated once and
// added v times, row-major, so every value is bit-identical to
// stats.PoissonBinomial's Mean and PaperMoments over the same slots.
func occupancyMoments(n int) (sum, mu, sigma2 float64, err error) {
	if n <= 1 {
		return 0, 0, 0, fmt.Errorf("core: occupancy model needs n > 1, got %d", n)
	}
	var rows [id.Digits]float64
	for row := range rows {
		rows[row] = FillProb(row, n)
	}
	for _, p := range rows {
		for col := 0; col < id.Base; col++ {
			sum += p
		}
	}
	mu = sum / slots
	for _, p := range rows {
		for col := 0; col < id.Base; col++ {
			d := p - mu
			sigma2 += d * d
		}
	}
	sigma2 /= slots
	return sum, mu, sigma2, nil
}

// ExpectedOccupancy returns μφ for an overlay of n nodes.
func ExpectedOccupancy(n int) (float64, error) {
	sum, _, _, err := occupancyMoments(n)
	return sum, err
}

// NormalApprox returns the paper's φ(μφ, σφ) for an overlay of n nodes:
//
//	μφ  = ℓv·μ
//	σφ² = ℓv·μ(1−μ) − ℓv·σ²
//
// which equals the exact Poisson-binomial variance Σ p(1−p).
func NormalApprox(n int) (stats.Normal, error) {
	_, mu, sigma2, err := occupancyMoments(n)
	if err != nil {
		return stats.Normal{}, err
	}
	varPhi := slots*mu*(1-mu) - slots*sigma2
	if varPhi <= 0 {
		return stats.Normal{}, fmt.Errorf("core: occupancy at n=%d has variance %v", n, varPhi)
	}
	return stats.Normal{Mu: slots * mu, Sigma: math.Sqrt(varPhi)}, nil
}

// MonteCarloOccupancy estimates table occupancy empirically — the
// "reality" series of Figure 1. Each trial draws a random owner and n−1
// random peers and counts how many distinct (row, col) slots the peers
// could fill. It returns the sample mean and standard deviation. Each
// trial draws from its own PCG substream derived from seed and the
// trial index, so the result is bit-identical for every worker count
// (including workers=1). workers <= 0 selects GOMAXPROCS.
func MonteCarloOccupancy(n, trials, workers int, seed parexec.Seed) (mean, std float64, err error) {
	if n <= 1 || trials <= 0 {
		return 0, 0, fmt.Errorf("core: Monte Carlo needs n > 1 and positive trials")
	}
	counts, err := parexec.MapTrials(workers, trials, seed, func(_ int, rng *rand.Rand) (float64, error) {
		return monteCarloTrial(n, rng), nil
	})
	if err != nil {
		return 0, 0, err
	}
	return stats.Mean(counts), stats.StdDev(counts), nil
}

// monteCarloTrial draws one random table and counts occupied slots.
func monteCarloTrial(n int, rng stats.Rand) float64 {
	var filled [id.Digits][id.Base]bool
	owner := id.Random(rng)
	var occ int
	for k := 0; k < n-1; k++ {
		peer := id.Random(rng)
		cpl := id.CommonPrefixLen(owner, peer)
		// Eq. 1's event for slot (i, j) is "some node exists with the
		// i-digit shared prefix and j as its next digit". A peer with
		// cpl shared digits therefore fills its divergence slot
		// (cpl, peer digit) and the owner-digit column of every
		// shallower row, exactly as the analytic model counts them.
		for row := 0; row < cpl; row++ {
			col := owner.Digit(row)
			if !filled[row][col] {
				filled[row][col] = true
				occ++
			}
		}
		if cpl < id.Digits {
			col := peer.Digit(cpl)
			if !filled[cpl][col] {
				filled[cpl][col] = true
				occ++
			}
		}
	}
	return float64(occ)
}

// DensityTest is the jump-table check of §3.1: a peer's advertised
// density d_peer is fraudulent if γ·d_peer < d_local. γ is slightly
// above 1; larger values tolerate sparser tables.
type DensityTest struct {
	Gamma float64
}

// NewDensityTest validates γ > 1 (γ ≤ 1 would reject most honest peers).
func NewDensityTest(gamma float64) (DensityTest, error) {
	if gamma <= 1 || math.IsNaN(gamma) || math.IsInf(gamma, 0) {
		return DensityTest{}, fmt.Errorf("core: density-test γ %v must exceed 1", gamma)
	}
	return DensityTest{Gamma: gamma}, nil
}

// Check reports whether the advertised occupancy passes: true means the
// table is accepted, false means it is deemed fraudulent. Occupancies
// are slot counts (not fractions); the comparison is scale-invariant.
func (t DensityTest) Check(localOccupancy, peerOccupancy float64) bool {
	return t.Gamma*peerOccupancy >= localOccupancy
}

// FalsePositiveRate computes the probability that an honest peer's table
// fails the density test:
//
//	Pr(γ d_peer < d_local) = Σ_{d} [φ(d+½) − φ(d−½)]·φ_peer(d/γ)
//
// localN sizes the distribution the verifier's own table is drawn from;
// peerN sizes the honest peer's. Without suppression attacks both equal
// the true overlay size; under suppression the peer's view shrinks to
// N(1−c) because colluders hide from it (§4.1).
func FalsePositiveRate(localN, peerN int, gamma float64) (float64, error) {
	if gamma <= 0 {
		return 0, fmt.Errorf("core: γ %v must be positive", gamma)
	}
	local, err := NormalApprox(localN)
	if err != nil {
		return 0, err
	}
	peer, err := NormalApprox(peerN)
	if err != nil {
		return 0, err
	}
	var sum float64
	for d := 0; d <= slots; d++ {
		mass := local.PointMass(float64(d))
		if mass == 0 {
			continue
		}
		sum += mass * peer.CDF(float64(d)/gamma)
	}
	return clampProb(sum), nil
}

// FalseNegativeRate computes the probability that an attacker's table —
// drawn from an overlay of attackerN colluding nodes — passes the test
// against a verifier whose own table reflects localN nodes:
//
//	Pr(γ d_peer ≥ d_local) = Σ_{d} [φ_att(d+½) − φ_att(d−½)]·φ_local(γ d)
func FalseNegativeRate(localN, attackerN int, gamma float64) (float64, error) {
	if gamma <= 0 {
		return 0, fmt.Errorf("core: γ %v must be positive", gamma)
	}
	local, err := NormalApprox(localN)
	if err != nil {
		return 0, err
	}
	attacker, err := NormalApprox(attackerN)
	if err != nil {
		return 0, err
	}
	var sum float64
	for d := 0; d <= slots; d++ {
		mass := attacker.PointMass(float64(d))
		if mass == 0 {
			continue
		}
		sum += mass * local.CDF(gamma*float64(d))
	}
	return clampProb(sum), nil
}

// DensityErrorRates bundles the two error probabilities at one γ.
type DensityErrorRates struct {
	Gamma         float64
	FalsePositive float64
	FalseNegative float64
}

// Sum returns the combined misclassification metric the paper minimizes
// when choosing γ (Figure 2c / 3c).
func (r DensityErrorRates) Sum() float64 { return r.FalsePositive + r.FalseNegative }

// DensityScenario describes whose view each distribution reflects.
// Collusion is c, the fraction of colluding malicious nodes; Suppression
// marks whether colluders additionally hide their identifiers from
// honest peers' views (Figure 3).
type DensityScenario struct {
	N           int
	Collusion   float64
	Suppression bool
}

// Validate reports the first invalid field.
func (s DensityScenario) Validate() error {
	if s.N <= 1 {
		return fmt.Errorf("core: scenario N %d must exceed 1", s.N)
	}
	if s.Collusion <= 0 || s.Collusion >= 1 || math.IsNaN(s.Collusion) {
		return fmt.Errorf("core: collusion fraction %v out of (0,1)", s.Collusion)
	}
	return nil
}

// populations returns the effective overlay sizes for each error
// metric, following §4.1's "appropriately skewed versions of N". The
// suppression skew is worst case per metric, since colluders choose whom
// to hide from: to manufacture false positives they suppress from the
// honest peer being judged (its table thins to N(1−c) while the
// verifier's stays N); to slip fraudulent tables past the test they
// suppress from the verifier (whose table thins to N(1−c) while the
// attacker advertises a table of its Nc colluders).
func (s DensityScenario) populations() (fpLocal, fpPeer, fnLocal, fnAttacker int) {
	fpLocal, fpPeer = s.N, s.N
	fnLocal = s.N
	fnAttacker = atLeast2(int(float64(s.N) * s.Collusion))
	if s.Suppression {
		suppressed := atLeast2(int(float64(s.N) * (1 - s.Collusion)))
		fpPeer = suppressed
		fnLocal = suppressed
	}
	return fpLocal, fpPeer, fnLocal, fnAttacker
}

func atLeast2(n int) int {
	if n < 2 {
		return 2
	}
	return n
}

// ErrorRatesAt evaluates both density-test error rates at γ under the
// scenario.
func ErrorRatesAt(s DensityScenario, gamma float64) (DensityErrorRates, error) {
	if err := s.Validate(); err != nil {
		return DensityErrorRates{}, err
	}
	fpLocal, fpPeer, fnLocal, fnAttacker := s.populations()
	fp, err := FalsePositiveRate(fpLocal, fpPeer, gamma)
	if err != nil {
		return DensityErrorRates{}, err
	}
	fn, err := FalseNegativeRate(fnLocal, fnAttacker, gamma)
	if err != nil {
		return DensityErrorRates{}, err
	}
	return DensityErrorRates{Gamma: gamma, FalsePositive: fp, FalseNegative: fn}, nil
}

// OptimalGamma sweeps γ over [lo, hi] in the given number of steps and
// returns the rates at the γ minimizing FP+FN — the choice behind
// Figures 2(c) and 3(c).
func OptimalGamma(s DensityScenario, lo, hi float64, steps int) (DensityErrorRates, error) {
	if !(lo > 0 && hi > lo) || steps < 2 {
		return DensityErrorRates{}, fmt.Errorf("core: bad γ sweep [%v, %v] x%d", lo, hi, steps)
	}
	best := DensityErrorRates{FalsePositive: 1, FalseNegative: 1}
	for i := 0; i < steps; i++ {
		gamma := lo + (hi-lo)*float64(i)/float64(steps-1)
		r, err := ErrorRatesAt(s, gamma)
		if err != nil {
			return DensityErrorRates{}, err
		}
		if r.Sum() < best.Sum() {
			best = r
		}
	}
	return best, nil
}

func clampProb(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}
