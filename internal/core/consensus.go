package core

import "fmt"

// Suppression defense (the future-work direction §4.1 closes with).
//
// The density test compares a peer's advertised occupancy against the
// verifier's own table, so colluders who suppress their identifiers
// from the verifier shrink its reference point and sneak sparse
// fraudulent tables past (Figure 3). The defense analysed here (fig 9)
// removes the single point of reference: the verifier estimates the
// overlay population from the *median* of many peers' leaf-spacing
// population estimates and tests advertised tables against the expected
// occupancy at that consensus population. A median over k estimates is
// unmoved until more than half the contributing peers collude, so
// suppression must corrupt a majority of the verifier's sample rather
// than just its local view.
//
// The defense restores the false-negative rate; it cannot restore false
// positives, because a suppressed honest peer's table is *genuinely*
// sparse — no reference point fixes evidence the attacker physically
// removed. ConsensusErrorRates exposes both sides. The simulation
// models the defense's error rates only: no host runs the runtime check,
// because no figure, campaign or workload gathers population estimates
// from peers (DESIGN.md §2).

// ConsensusErrorRates computes the defense's error rates under a
// suppression attack with colluding fraction c, mirroring the Figure 3
// analysis:
//
//   - false negative: the attacker's table (drawn from Nc colluders)
//     passes against μφ(N) — the consensus reference the median
//     preserves as long as c < 1/2;
//   - false positive: an honest-but-suppressed peer's table (drawn from
//     N(1−c)) fails against the same reference.
func ConsensusErrorRates(s DensityScenario, gamma float64) (DensityErrorRates, error) {
	if err := s.Validate(); err != nil {
		return DensityErrorRates{}, err
	}
	if gamma <= 0 {
		return DensityErrorRates{}, fmt.Errorf("core: γ %v must be positive", gamma)
	}
	// Median of population estimates stays at N while c < 1/2.
	reference := s.N
	if s.Collusion >= 0.5 {
		reference = atLeast2(int(float64(s.N) * s.Collusion))
	}
	mu, err := ExpectedOccupancy(reference)
	if err != nil {
		return DensityErrorRates{}, err
	}
	cut := mu / gamma

	peerN := s.N
	if s.Suppression {
		peerN = atLeast2(int(float64(s.N) * (1 - s.Collusion)))
	}
	peer, err := NormalApprox(peerN)
	if err != nil {
		return DensityErrorRates{}, err
	}
	attacker, err := NormalApprox(atLeast2(int(float64(s.N) * s.Collusion)))
	if err != nil {
		return DensityErrorRates{}, err
	}
	return DensityErrorRates{
		Gamma:         gamma,
		FalsePositive: clampProb(peer.CDF(cut)),          // honest table below cut
		FalseNegative: clampProb(attacker.Survival(cut)), // fraudulent table above cut
	}, nil
}
