package campaign

import (
	"concilium/internal/core"
	"concilium/internal/id"
)

// collusionStrategy is the §4.3 adaptive clique: members drop every
// message they steward, publish inverted probe results that frame
// whichever honest host is being judged (and excuse fellow members as
// network faults), and co-sign forged accusation chains against honest
// victims. The defense under test is two-layered: the repository's
// replay rejections expose the co-signing clique to the
// CliqueSuspector, and the blame engine's witness grouping then
// collapses the clique's corroborated observations into a single
// witness, so k colluders no longer outvote honest probers.
type collusionStrategy struct{}

func (collusionStrategy) Name() string { return "collusion" }

func (collusionStrategy) Setup(env *Env) error {
	for _, a := range env.Attackers {
		b := core.Behavior{DropsMessages: true, InvertsProbes: true, Clique: 1}
		if err := env.sys.SetBehavior(a, b); err != nil {
			return err
		}
	}
	return nil
}

// Round pushes the clique's co-signed forgeries: each member pairs
// with its clockwise clique neighbor to co-sign a chain against a
// fresh honest victim, then replays it byte for byte. The replay is
// rejected as a duplicate — and the rejection is what teaches the
// suspector who signs together. A lone attacker (f small enough for a
// single-member "clique") forges single-link chains, which carry no
// co-signing evidence and leave the suspector empty.
func (collusionStrategy) Round(env *Env, round int) error {
	if len(env.Honest) == 0 {
		return nil
	}
	n := len(env.Attackers)
	for i := 0; i < n; i++ {
		victim := env.pickVictim()
		signers := []id.ID{env.Attackers[i]}
		if n > 1 {
			signers = append(signers, env.Attackers[(i+1)%n])
		}
		chain, err := env.forgedChain(signers, victim, env.nextForgeID(), env.sys.Sim.Now())
		if err != nil {
			return err
		}
		env.publish(chain, false)
		// The byte-identical replay: rejected as a duplicate, which
		// feeds the suspector when the chain was co-signed.
		env.publish(chain, false)
	}
	return nil
}

func (collusionStrategy) Curve(env *Env) ([]ROCPoint, ROCPoint, error) {
	return env.windowCurve()
}
