// Package stats provides the probability machinery Concilium's analytics
// depend on: the normal distribution used to approximate jump-table
// occupancy (§3.1), the Poisson binomial that occupancy actually follows,
// the binomial tails behind accusation-window error rates (§4.3), the
// Beta sampler driving the edge-biased link-failure model (§4.2), and
// plain summary statistics for the experiment harness.
//
// All samplers take an explicit random source so experiments are
// reproducible; nothing in the package touches global state.
package stats

import "math"

// Normal is a normal (Gaussian) distribution with mean Mu and standard
// deviation Sigma.
type Normal struct {
	Mu    float64
	Sigma float64
}

// CDF evaluates the cumulative distribution at x: Pr(X <= x).
func (n Normal) CDF(x float64) float64 {
	z := (x - n.Mu) / (n.Sigma * math.Sqrt2)
	return 0.5 * math.Erfc(-z)
}

// Survival evaluates Pr(X > x), computed to preserve precision in the
// upper tail.
func (n Normal) Survival(x float64) float64 {
	z := (x - n.Mu) / (n.Sigma * math.Sqrt2)
	return 0.5 * math.Erfc(z)
}

// PointMass approximates Pr(X == k) for an integer-valued variable being
// modelled by this normal, using the continuity correction
// φ(k+1/2) − φ(k−1/2) exactly as the paper's density-test equations do.
func (n Normal) PointMass(k float64) float64 {
	return n.CDF(k+0.5) - n.CDF(k-0.5)
}

// Sample draws one variate using the Box-Muller transform.
func (n Normal) Sample(r Rand) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return n.Mu + n.Sigma*z
}

// Rand is the random source the samplers consume. *math/rand/v2.Rand
// satisfies it.
type Rand interface {
	Float64() float64
	Uint64() uint64
	IntN(n int) int
}
