package campaign

import (
	"concilium/internal/core"
	"concilium/internal/id"
)

// spamStrategy attacks the accusation repository itself: attackers
// (who also drop traffic, so genuine convictions accumulate against
// them) flood forged chains against honest victims — fresh forgeries,
// byte-identical duplicates, and stale-evidence replays whose verdicts
// predate the staleness bound. The defenses under test are the
// repository's per-accuser rate caps, duplicate digests, and staleness
// bound, plus the clique-discounted sanctioning count: a victim with k
// colluding accusers on file counts one distinct (grouped) accuser,
// while a genuine dropper accumulates independent honest accusers.
type spamStrategy struct{}

func (spamStrategy) Name() string { return "accusation-spam" }

func (spamStrategy) Setup(env *Env) error {
	for _, a := range env.Attackers {
		if err := env.sys.SetBehavior(a, core.Behavior{DropsMessages: true, Clique: 1}); err != nil {
			return err
		}
	}
	return nil
}

// Round runs one flood burst per attacker against a rotating victim:
// a fresh forgery (the repository admits at most the per-accuser cap),
// a byte-identical duplicate, and a stale replay stamped at virtual
// time zero — long before the staleness bound at publish time.
func (spamStrategy) Round(env *Env, round int) error {
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
		fresh, err := env.forgedChain(signers, victim, env.nextForgeID(), env.sys.Sim.Now())
		if err != nil {
			return err
		}
		env.publish(fresh, false)
		env.publish(fresh, false) // duplicate replay
		stale, err := env.forgedChain(signers, victim, env.nextForgeID(), 0)
		if err != nil {
			return err
		}
		env.publish(stale, false) // stale-evidence replay
	}
	return nil
}

// Curve sweeps the sanctioning quorum q over the clique-discounted
// distinct-accuser count: a host is convicted at threshold q when at
// least q distinct accuser groups hold verifiable chains against it.
// The operating point is the configured SanctionQuorum.
func (spamStrategy) Curve(env *Env) ([]ROCPoint, ROCPoint, error) {
	counts := make(map[id.ID]int, len(env.members))
	maxQ := env.Cfg.SanctionQuorum + 4
	for _, nid := range env.members {
		n, err := env.repo.CountBy(nid, env.Suspector.Group)
		if err != nil {
			return nil, ROCPoint{}, err
		}
		counts[nid] = n
		if n+1 > maxQ {
			maxQ = n + 1
		}
	}
	rate := func(hosts []id.ID, q int) float64 {
		if len(hosts) == 0 {
			return 0
		}
		var n int
		for _, h := range hosts {
			if counts[h] >= q {
				n++
			}
		}
		return float64(n) / float64(len(hosts))
	}
	curve := make([]ROCPoint, 0, maxQ)
	var op ROCPoint
	for q := 1; q <= maxQ; q++ {
		p := ROCPoint{
			Threshold:    float64(q),
			AttackerRate: rate(env.Attackers, q),
			HonestRate:   rate(env.Honest, q),
		}
		curve = append(curve, p)
		if q == env.Cfg.SanctionQuorum {
			op = p
		}
	}
	return curve, op, nil
}
