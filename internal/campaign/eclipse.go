package campaign

import (
	"encoding/binary"
	"fmt"

	"concilium/internal/id"
	"concilium/internal/overlay"
)

// eclipseStrategy attacks identifier placement: attackers join the
// overlay at identifiers packed immediately clockwise of a victim,
// monopolizing its leaf set — the placement that, if the CA allowed
// free identifier choice, would defeat the §3.1 γ density test by
// surrounding the victim with colluder state. The detector under test
// is the spacing anomaly check: under random identifier assignment the
// minimum gap inside a host's leaf-set arc is within a small factor of
// the mean gap, while a packed cluster's minimum gap is smaller by
// many orders of magnitude. Honest evaluators majority-vote each
// host's anomaly factor against the threshold γ.
type eclipseStrategy struct {
	victim id.ID
}

func (eclipseStrategy) Name() string { return "eclipse" }

// eclipseGammas is the detector's threshold grid: anomaly factors
// sweep powers of two, with the operating point at 2^10 — far above
// the O(leaf-set size) factors random placement produces, far below a
// packed cluster's.
func eclipseGammas() []float64 {
	out := make([]float64, 0, 23)
	for k := 2; k <= 24; k++ {
		out = append(out, float64(uint64(1)<<k))
	}
	return out
}

const eclipseOpGamma = 1 << 10

// Setup joins the attackers at identifiers victim+δ, victim+2δ, ... —
// a cluster whose internal spacing is ~30 orders of magnitude below
// the mean gap of the ring. Joins go through the normal admission
// path (the CA claims each identifier), and the accusation
// store is rebalanced onto the grown ring exactly as churn would.
func (s *eclipseStrategy) Setup(env *Env) error {
	sys := env.sys
	if len(env.Honest) == 0 {
		return fmt.Errorf("campaign: eclipse needs an honest victim")
	}
	s.victim = env.pickVictim()
	hosts := sys.Topo.EndHosts()
	n := len(env.Attackers) // engine pre-sized the attacker count
	joined := make([]id.ID, 0, n)
	for j := 0; j < n; j++ {
		var delta id.ID
		binary.BigEndian.PutUint64(delta[8:], uint64(j+1)*1_000_003)
		nid := id.Add(s.victim, delta)
		router := hosts[env.Attack.IntN(len(hosts))]
		got, err := sys.JoinNodeAt(router, nid)
		if err != nil {
			return fmt.Errorf("campaign: eclipse join %d: %w", j, err)
		}
		joined = append(joined, got)
	}
	// The eclipse cluster replaces the pre-selected tail attackers:
	// the joined identities are the actual adversaries.
	env.Attackers = joined
	env.refreshHonest()
	if err := env.store.Rebalance(sys.Overlay.Ring()); err != nil {
		env.cell.RebalanceErrors++
	}
	return nil
}

// Round is empty: the eclipse attack is the placement itself.
func (*eclipseStrategy) Round(*Env, int) error { return nil }

// Curve sweeps γ over the anomaly grid. For each host x the detector
// computes x's anomaly factor — the ring distance from x to its own
// nearest leaf-set neighbor — and every honest evaluator e votes
// "fraudulent" when γ·nearGap(x) < meanGap(e); a majority convicts.
// The score must be the host's OWN placement, not the tightest gap
// anywhere in its leaf set: the packed cluster appears in many honest
// hosts' leaf sets, but only cluster members (and the victim they
// besiege) actually sit a hair's width from a neighbor. The victim is
// the attack's collateral, reported as honest false convictions.
func (s *eclipseStrategy) Curve(env *Env) ([]ROCPoint, ROCPoint, error) {
	sys := env.sys
	minGap := make(map[id.ID]float64, len(env.members))
	var evaluators []id.ID
	meanGap := make(map[id.ID]float64)
	var leaves []uint32
	for _, nid := range env.members {
		i, _ := sys.Overlay.IndexOf(nid)
		leaves = sys.Overlay.AppendLeafIndices(i, leaves[:0])
		minGap[nid] = nearestNeighborGap(sys.Overlay, nid, leaves)
		if env.attSet[nid] {
			continue
		}
		if mg, err := sys.Overlay.LeafMeanSpacing(i); err == nil && mg > 0 {
			evaluators = append(evaluators, nid)
			meanGap[nid] = mg
		}
	}
	if len(evaluators) == 0 {
		return nil, ROCPoint{}, fmt.Errorf("campaign: eclipse curve has no evaluators")
	}
	flaggedAt := func(x id.ID, gamma float64) bool {
		votes, voters := 0, 0
		for _, e := range evaluators {
			if e == x {
				continue
			}
			voters++
			if gamma*minGap[x] < meanGap[e] {
				votes++
			}
		}
		return voters > 0 && 2*votes > voters
	}
	rate := func(hosts []id.ID, gamma float64) float64 {
		if len(hosts) == 0 {
			return 0
		}
		var n int
		for _, h := range hosts {
			if flaggedAt(h, gamma) {
				n++
			}
		}
		return float64(n) / float64(len(hosts))
	}
	var curve []ROCPoint
	var op ROCPoint
	for _, gamma := range eclipseGammas() {
		p := ROCPoint{
			Threshold:    gamma,
			AttackerRate: rate(env.Attackers, gamma),
			HonestRate:   rate(env.Honest, gamma),
		}
		curve = append(curve, p)
		if gamma == eclipseOpGamma {
			op = p
		}
	}
	// Flagged hosts at the operating point lose their voting rights in
	// the reputation fallback: an eclipse cluster cannot vote its
	// victim into sanctions.
	for _, nid := range env.members {
		if flaggedAt(nid, eclipseOpGamma) {
			env.Distrusted[nid] = true
		}
	}
	return curve, op, nil
}

// nearestNeighborGap returns the ring distance from the owner to its
// closest leaf-set member, in either direction. This is the owner's
// personal placement anomaly: a packed attacker sits δ from a cluster
// sibling, while a randomly placed host's nearest neighbor is an
// exponential draw around ring/N.
func nearestNeighborGap(o *overlay.Compact, owner id.ID, leaves []uint32) float64 {
	best := id.RingSize
	for _, j := range leaves {
		m := o.ID(j)
		if m == owner {
			continue
		}
		cw, ccw := id.Spacing(owner, m), id.Spacing(m, owner)
		if cw > 0 && cw < best {
			best = cw
		}
		if ccw > 0 && ccw < best {
			best = ccw
		}
	}
	return best
}
