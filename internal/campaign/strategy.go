package campaign

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"concilium/internal/core"
	"concilium/internal/dht"
	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/reputation"
	"concilium/internal/topology"
)

// Strategy is one attack campaign. Implementations must be pure
// functions of the cell's substreams: all randomness comes from
// env.Attack, so a cell's outcome depends only on (seed, cell index).
type Strategy interface {
	// Name identifies the strategy in reports and figures.
	Name() string
	// Setup installs the cell's attackers after system construction and
	// warmup (marking behaviors, joining eclipse nodes).
	Setup(env *Env) error
	// Round runs one attack round between traffic batches: forged-chain
	// pushes, repository floods, replays.
	Round(env *Env, round int) error
	// Curve computes the cell's conviction ROC after all traffic, plus
	// the configured operating point. It may also fill env.Distrusted
	// with hosts the strategy's detector flags, which the reputation
	// tally excludes from the trusted voter set.
	Curve(env *Env) ([]ROCPoint, ROCPoint, error)
}

// Strategies returns the campaign's attack list in fixed order — the
// "attack list first" contract: every strategy is a seeded campaign
// with an invariant over its conviction ROC.
func Strategies() []Strategy {
	return []Strategy{
		&dropperStrategy{},
		&collusionStrategy{},
		&spamStrategy{},
		&eclipseStrategy{},
	}
}

// Env is the per-cell world handed to a strategy: the deployment
// (system, accusation repository, traffic), the collusion suspector
// feeding the clique-discounting defenses, and the cell's attack
// substream.
type Env struct {
	*testbed
	Cfg       *AdversaryConfig
	Suspector *core.CliqueSuspector
	Board     *reputation.Board

	// Attackers is the cell's attacker set; Honest is everyone else
	// (recomputed after eclipse joins).
	Attackers []id.ID
	Honest    []id.ID

	// Attack is the strategy's substream (stream 2 of the cell seed;
	// traffic draws from stream 1).
	Attack *rand.Rand

	// Distrusted collects hosts flagged by a strategy's detector (e.g.
	// the eclipse spacing test); the reputation tally refuses their
	// votes.
	Distrusted map[id.ID]bool

	attSet  map[id.ID]bool
	cell    *CellResult
	forgeID uint64
}

// refreshHonest recomputes the attacker lookup, and the honest list
// from the current overlay membership in deterministic system order.
func (e *Env) refreshHonest() {
	e.attSet = make(map[id.ID]bool, len(e.Attackers))
	for _, a := range e.Attackers {
		e.attSet[a] = true
	}
	e.members = e.sys.AliveIDs()
	e.Honest = e.Honest[:0]
	for _, nid := range e.members {
		if !e.attSet[nid] {
			e.Honest = append(e.Honest, nid)
		}
	}
}

// nextForgeID issues message numbers for forged chains, offset far
// above any genuine per-node sequence so forged and genuine chains
// never alias on MsgID.
func (e *Env) nextForgeID() uint64 {
	e.forgeID++
	return e.forgeID + (1 << 32)
}

// publish routes a chain through the hardened repository and accounts
// for the outcome. Duplicate and stale rejections are proof of
// deliberate replay, so the chain's co-signers are merged into the
// suspected clique; rate-limit rejections are not suspicion on their
// own — an honest accuser can trip a cap innocently — and are only
// tallied.
func (e *Env) publish(chain *core.RevisionChain, genuine bool) {
	err := e.repo.PublishAt(chain, e.sys.Sim.Now())
	switch {
	case err == nil:
		e.cell.ChainsPublished++
	case errors.Is(err, dht.ErrDuplicateChain), errors.Is(err, dht.ErrStaleChain):
		e.suspectCoSigners(chain)
	case errors.Is(err, dht.ErrRateLimited):
		if genuine {
			e.cell.GenuineRateLimited++
		}
	default:
		e.cell.PublishErrors++
	}
}

// suspectCoSigners merges every accuser that signed the chain into one
// suspected clique. Single-accuser chains carry no co-signing evidence
// and merge nothing.
func (e *Env) suspectCoSigners(chain *core.RevisionChain) {
	accusers := make([]id.ID, 0, len(chain.Links))
	for i := range chain.Links {
		accusers = append(accusers, chain.Links[i].Accuser)
	}
	e.Suspector.SuspectAll(accusers)
}

// forgedChain mints a co-signed accusation chain along signers →
// victim with fabricated evidence: a single link reported at
// confidence 0 recomputes to blame 1, which passes third-party
// verification (§3.4's check validates internal consistency, not
// archive agreement). Commitments are minted with the accused's keys —
// the in-simulation stand-in for replaying a forwarding commitment the
// accused legitimately issued earlier, which any past downstream peer
// holds.
func (e *Env) forgedChain(signers []id.ID, victim id.ID, msgID uint64, at netsim.Time) (*core.RevisionChain, error) {
	path := make([]id.ID, 0, len(signers)+1)
	path = append(path, signers...)
	path = append(path, victim)
	links := make([]core.Accusation, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		accuser, accused := path[i], path[i+1]
		accusedAt, okAccused := e.sys.Overlay.IndexOf(accused)
		accuserAt, okAccuser := e.sys.Overlay.IndexOf(accuser)
		if !okAccused || !okAccuser {
			return nil, fmt.Errorf("campaign: forged chain names departed host")
		}
		res := core.BlameResult{
			Judged: accused,
			At:     at,
			Blame:  1,
			Guilty: true,
			Evidence: []core.LinkConfidence{
				{Link: topology.LinkID(1), Probes: 3, Confidence: 0},
			},
		}
		commit := core.NewCommitment(e.sys.Keys(accusedAt), accuser, accused, victim, msgID, at)
		acc, err := core.NewAccusation(e.sys.Keys(accuserAt), accuser, res, msgID,
			[]topology.LinkID{topology.LinkID(1)}, commit)
		if err != nil {
			return nil, err
		}
		links = append(links, acc)
	}
	return core.NewRevisionChain(links)
}

// pickVictim draws an honest target from the attack substream.
func (e *Env) pickVictim() id.ID {
	return e.Honest[e.Attack.IntN(len(e.Honest))]
}

// castVote records a no-confidence vote on the board, tallying (not
// failing on) verification errors.
func (e *Env) castVote(voter, subject id.ID) {
	i, ok := e.sys.Overlay.IndexOf(voter)
	if !ok || voter == subject {
		return
	}
	keys := e.sys.Keys(i)
	v := reputation.NewVote(keys, voter, subject, e.sys.Sim.Now())
	if err := e.Board.Record(v, keys.Public); err != nil {
		e.cell.VoteErrors++
	}
}

// windowCurve is the shared conviction ROC for window-based strategies:
// the decision threshold m sweeps 1..W over each host's current guilty
// count, and the operating point is the configured accusation
// threshold M. It is a complete Strategy.Curve.
func (e *Env) windowCurve() ([]ROCPoint, ROCPoint, error) {
	w := e.sys.Config.Window.W
	curve := make([]ROCPoint, 0, w)
	var op ROCPoint
	for m := 1; m <= w; m++ {
		p := ROCPoint{
			Threshold:    float64(m),
			AttackerRate: e.convictionRate(e.Attackers, m),
			HonestRate:   e.convictionRate(e.Honest, m),
		}
		curve = append(curve, p)
		if m == e.sys.Config.Window.M {
			op = p
		}
	}
	return curve, op, nil
}

// convictionRate is the fraction of hosts whose verdict window holds
// at least m guilty verdicts.
func (e *Env) convictionRate(hosts []id.ID, m int) float64 {
	if len(hosts) == 0 {
		return 0
	}
	var n int
	for _, h := range hosts {
		if e.sys.GuiltyCount(h) >= m {
			n++
		}
	}
	return float64(n) / float64(len(hosts))
}
