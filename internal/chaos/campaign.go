package chaos

import (
	"crypto/ed25519"
	"fmt"
	"math/rand/v2"
	"time"

	"concilium/internal/core"
	"concilium/internal/dht"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/parexec"
)

// Campaign is one running chaos campaign: the system under test, the
// accusation DHT beside it, the derived random substreams, and the
// accumulating report.
type Campaign struct {
	cfg   Config
	sys   *core.CompactSystem
	store *dht.Store
	repo  *dht.AccusationRepo

	// alive is the membership in build order, the pool every random
	// node pick draws from; refreshed after each churn event.
	alive []id.ID

	// keyDir outlives churn: verifying a chain signed by a node that
	// later crashed requires its public key, so keys are snapshotted at
	// issue time and never removed.
	keyDir map[id.ID]ed25519.PublicKey

	sched   *rand.Rand // fault-schedule substream
	traffic *rand.Rand // traffic substream

	// reg collects the campaign's metric series; the report keeps only
	// the canonical (deterministic) part, so Report stays a pure
	// function of the seed at every worker count.
	reg *metrics.Registry

	rep       Report
	published map[id.ID]int // culprit -> chains successfully published
	departed  map[id.ID]bool
	stale     bool // inside the evidence-staleness episode
	dtest     core.DensityTest
}

// Run executes a campaign and returns its report. Panics anywhere in
// the campaign are caught and recorded as a failed no-panic invariant
// rather than crashing the caller — the campaign's own first contract.
func Run(cfg Config) (*Report, error) {
	c, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return c.runRecovering()
}

// RootSeed derives the chaos campaign's substream family from an
// experiment seed. The XOR constant ("concilms") namespaces chaos
// streams away from other campaign engines sharing the same seed —
// the adversary package uses a different constant, so one experiment
// seed can drive both without any stream replaying.
func RootSeed(seed uint64) parexec.Seed {
	return parexec.NewSeed(seed, seed^0x636f6e63696c6d73)
}

func newCampaign(cfg Config) (*Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.System.Workers = cfg.Workers

	// Independent substreams: the system's event randomness, the fault
	// schedule, and traffic pair selection never perturb each other, so
	// episodes can be reordered or resized without rewriting history.
	root := RootSeed(cfg.Seed)
	reg := metrics.NewRegistry()
	cfg.System.Metrics = reg
	sys, err := core.BuildCompactSystem(cfg.System, root.Stream(0))
	if err != nil {
		return nil, err
	}
	alive := sys.AliveIDs()
	store, err := dht.New(sys.Overlay.Ring(), cfg.Replicas)
	if err != nil {
		return nil, err
	}
	store.SetMetrics(reg)

	// Adversary knob: mark the tail of the deterministic order as
	// probabilistic droppers. The build marks MaliciousFraction at the
	// head, so the two sets are disjoint; SetBehavior draws no
	// randomness, so a zero fraction leaves every substream — and the
	// report — exactly as before the knob existed.
	marked := 0
	if cfg.AdversaryFraction > 0 {
		marked = int(cfg.AdversaryFraction*float64(len(alive)) + 0.5)
		if marked < 1 {
			marked = 1
		}
		for _, nid := range alive[len(alive)-marked:] {
			if err := sys.SetBehavior(nid, core.Behavior{DropProb: cfg.AdversaryDropProb}); err != nil {
				return nil, err
			}
		}
	}

	c := &Campaign{
		cfg:       cfg,
		sys:       sys,
		store:     store,
		alive:     alive,
		reg:       reg,
		keyDir:    make(map[id.ID]ed25519.PublicKey, len(alive)),
		sched:     root.Stream(1),
		traffic:   root.Stream(2),
		published: make(map[id.ID]int),
		departed:  make(map[id.ID]bool),
	}
	for i := 0; i < sys.Size(); i++ {
		c.keyDir[sys.NodeID(uint32(i))] = sys.Keys(uint32(i)).Public
	}
	keys := func(x id.ID) (ed25519.PublicKey, bool) {
		k, ok := c.keyDir[x]
		return k, ok
	}
	c.repo, err = dht.NewAccusationRepo(store, keys, cfg.System.Blame.GuiltyThreshold)
	if err != nil {
		return nil, err
	}
	c.repo.SetMetrics(reg)
	c.dtest, err = core.NewDensityTest(2.0)
	if err != nil {
		return nil, err
	}
	c.rep.Seed = cfg.Seed
	c.rep.Nodes = len(alive)
	c.rep.AdversaryMarked = marked
	return c, nil
}

func (c *Campaign) runRecovering() (rep *Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.rep.addInvariant("no-panic", false, fmt.Sprintf("panic: %v", p))
			rep, err = &c.rep, nil
		}
	}()
	if err := c.run(); err != nil {
		return nil, err
	}
	c.rep.addInvariant("no-panic", true, "")
	return &c.rep, nil
}

func (c *Campaign) run() error {
	s := c.sys
	if err := s.StartFailures(); err != nil {
		return err
	}
	if err := s.StartProbing(); err != nil {
		return err
	}
	s.Run(c.cfg.Warmup)

	if err := c.phaseBaseline(); err != nil {
		return err
	}
	if err := c.phaseProbeLoss(); err != nil {
		return err
	}
	if err := c.phaseSilentLeaves(); err != nil {
		return err
	}
	if err := c.phaseReplicaOutage(); err != nil {
		return err
	}
	if err := c.phaseStaleEvidence(); err != nil {
		return err
	}
	if err := c.phaseChurn(); err != nil {
		return err
	}
	c.finish()
	return nil
}

// phaseBaseline routes traffic with only the background link-failure
// process active — the control the fault episodes are compared to.
func (c *Campaign) phaseBaseline() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "link-failures")
	return c.sendTraffic("baseline", c.cfg.MessagesPerPhase)
}

// phaseProbeLoss eats whole probe sweeps at random, thinning the
// evidence archive without emptying it.
func (c *Campaign) phaseProbeLoss() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "probe-loss")
	if err := c.sys.SetProbeLoss(c.cfg.ProbeLoss); err != nil {
		return err
	}
	c.sys.Run(time.Minute)
	if err := c.sendTraffic("probe-loss", c.cfg.MessagesPerPhase); err != nil {
		return err
	}
	return c.sys.SetProbeLoss(0)
}

// phaseSilentLeaves silences a scheduled set of tomography leaves —
// nodes that stay in the overlay but stop reporting.
func (c *Campaign) phaseSilentLeaves() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "leaf-silence")
	n := c.cfg.SilentLeaves
	if n > len(c.alive) {
		n = len(c.alive)
	}
	silenced := make([]id.ID, 0, n)
	for len(silenced) < n {
		cand := c.alive[c.sched.IntN(len(c.alive))]
		dup := false
		for _, x := range silenced {
			dup = dup || x == cand
		}
		if dup {
			continue
		}
		silenced = append(silenced, cand)
		if err := c.sys.SetNodeSilent(cand, true); err != nil {
			return err
		}
	}
	c.sys.Run(time.Minute)
	if err := c.sendTraffic("leaf-silence", c.cfg.MessagesPerPhase); err != nil {
		return err
	}
	for _, nid := range silenced {
		if err := c.sys.SetNodeSilent(nid, false); err != nil {
			return err
		}
	}
	return nil
}

// phaseReplicaOutage takes ReplicaOutage DHT members down (below the
// per-key quorum bound), routes traffic whose convictions publish into
// the degraded store, then repairs them.
func (c *Campaign) phaseReplicaOutage() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "dht-outage")
	faulty := make([]id.ID, 0, c.cfg.ReplicaOutage)
	for len(faulty) < c.cfg.ReplicaOutage && len(faulty) < len(c.alive) {
		cand := c.alive[c.sched.IntN(len(c.alive))]
		dup := false
		for _, x := range faulty {
			dup = dup || x == cand
		}
		if dup {
			continue
		}
		faulty = append(faulty, cand)
		if err := c.store.SetFaulty(cand, true); err != nil {
			return err
		}
	}
	if err := c.sendTraffic("dht-outage", c.cfg.MessagesPerPhase); err != nil {
		return err
	}
	for _, nid := range faulty {
		if err := c.store.SetFaulty(nid, false); err != nil {
			return err
		}
	}
	return c.sendTraffic("dht-repaired", c.cfg.MessagesPerPhase/2+1)
}

// phaseStaleEvidence pauses all probe publication for well past Δ, so
// sends see an admissibility window with nothing in it. The contract:
// blame must degrade to widened-uncertainty verdicts, never convict.
func (c *Campaign) phaseStaleEvidence() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "stale-evidence")
	delta := c.sys.Config.Blame.Delta
	c.sys.SuppressProbes(true)
	c.sys.Run(2*delta + delta/2)
	c.stale = true
	if err := c.sendTraffic("stale-evidence", c.cfg.MessagesPerPhase); err != nil {
		return err
	}
	c.stale = false
	c.sys.SuppressProbes(false)
	c.sys.Run(2 * delta)
	return nil
}

// phaseChurn interleaves crashes and joins with in-flight traffic:
// each round schedules a departure to fire inside the first message's
// forward pass, rebalances the accusation store onto the new ring, and
// revalidates every survivor's routing state.
func (c *Campaign) phaseChurn() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "churn")
	s := c.sys
	for r := 0; r < c.cfg.ChurnRounds; r++ {
		if s.Size() > 6 {
			victim := c.alive[c.sched.IntN(len(c.alive))]
			err := s.Sim.ScheduleAfter(150*time.Millisecond, func() {
				if s.Size() <= 5 {
					return
				}
				if err := s.FailNode(victim); err != nil {
					return
				}
				c.alive = s.AliveIDs()
				c.departed[victim] = true
				// The crashed machine takes its replica data with it.
				_ = c.store.SetFaulty(victim, true)
				if err := c.store.Rebalance(s.Overlay.Ring()); err != nil {
					c.rep.RebalanceErrors++
				}
			})
			if err != nil {
				return err
			}
		}
		if err := c.sendTraffic("churn", c.cfg.MessagesPerPhase/2+1); err != nil {
			return err
		}
		c.checkRouting()
		if r%2 == 1 {
			hosts := s.Topo.EndHosts()
			nid, err := s.JoinNode(hosts[c.sched.IntN(len(hosts))])
			if err != nil {
				return err
			}
			i, _ := s.Overlay.IndexOf(nid)
			c.keyDir[nid] = s.Keys(i).Public
			c.alive = s.AliveIDs()
			if err := c.store.Rebalance(s.Overlay.Ring()); err != nil {
				c.rep.RebalanceErrors++
			}
			c.checkRouting()
		}
		s.Run(time.Minute)
	}
	return nil
}

// sendTraffic routes n stewarded messages between pairs drawn from the
// traffic substream, tallying outcomes and publishing any accusation
// chains into the DHT.
func (c *Campaign) sendTraffic(phase string, n int) error {
	for i := 0; i < n; i++ {
		src := c.alive[c.traffic.IntN(len(c.alive))]
		dst := c.alive[c.traffic.IntN(len(c.alive))]
		rep, err := c.sys.SendMessage(src, dst)
		if err != nil {
			return fmt.Errorf("chaos: %s message %d: %w", phase, i, err)
		}
		c.tally(rep)
		c.sys.Run(c.cfg.Pace)
	}
	return nil
}

func (c *Campaign) tally(rep *core.DeliveryReport) {
	c.rep.Sent++
	if rep.Delivered && rep.AckReceived {
		c.rep.Delivered++
	}
	switch rep.Kind {
	case core.DropByNode:
		c.rep.NodeDrops++
	case core.DropByLink:
		c.rep.LinkDrops++
	case core.DropAckByLink:
		c.rep.AckDrops++
	case core.DropByChurn:
		c.rep.ChurnDrops++
	}
	if len(rep.Verdicts) > 0 {
		c.rep.Diagnosed++
	}
	if c.stale {
		c.rep.StaleSends++
	}
	if rep.NetworkBlamed {
		c.rep.NetworkBlamed++
	}
	if rep.Culprit == (id.ID{}) {
		return
	}
	c.rep.Convictions++
	if c.stale {
		c.rep.StaleConvictions++
	}
	if i, live := c.sys.Overlay.IndexOf(rep.Culprit); live {
		if c.sys.Behavior(i).Honest() {
			c.rep.HonestConvictions++
		}
	} else {
		// A departed node convicted for a drop its crash caused: not a
		// protocol false positive, tracked separately.
		c.rep.DepartedConvictions++
	}
	if rep.Chain == nil {
		return
	}
	if err := c.repo.Publish(rep.Chain); err != nil {
		c.rep.PublishErrors++
		return
	}
	c.published[rep.Culprit]++
	c.rep.ChainsPublished++
	if !c.store.KeyHealth(rep.Culprit).Quorum() {
		c.rep.PutQuorumLost++
	}
}

// checkRouting verifies every survivor's overlay state after a churn
// event: secure tables are structurally valid, and the §3.1 density
// test holds between each node and its routing peers. Peers are ring
// positions, so they always resolve to live nodes.
func (c *Campaign) checkRouting() {
	o := c.sys.Overlay
	var peers []uint32
	for i := uint32(0); i < uint32(o.Size()); i++ {
		if err := o.ValidateSecure(i); err != nil {
			c.rep.RoutingViolations++
			continue
		}
		local := float64(o.SecureOccupancy(i))
		peers = o.AppendRoutingPeers(i, peers[:0])
		for _, j := range peers {
			if !c.dtest.Check(local, float64(o.SecureOccupancy(j))) {
				c.rep.DensityViolations++
			}
		}
	}
}

// finish evaluates the campaign invariants in a fixed order.
func (c *Campaign) finish() {
	r := &c.rep
	r.Counters = c.sys.Counters
	r.Injector = c.sys.Injector.Stats()
	r.InjectorTarget = c.sys.Injector.Target()
	r.InjectorDeficit = c.sys.Injector.Deficit()
	r.DownLinks = c.sys.Net.DownCount()
	r.FinalNodes = c.sys.Size()
	// Canonical only: wall-clock series would break the report's
	// seed-determinism contract.
	r.Metrics = c.reg.Snapshot().Canonical()

	r.addInvariant("fault-kinds>=4", len(r.FaultKinds) >= 4,
		fmt.Sprintf("%d kinds composed", len(r.FaultKinds)))

	r.addInvariant("routing-valid-after-churn", r.RoutingViolations == 0,
		fmt.Sprintf("%d violations", r.RoutingViolations))
	r.addInvariant("density-test-after-churn", r.DensityViolations == 0,
		fmt.Sprintf("%d violations", r.DensityViolations))

	// Honest false convictions stay under the fuzzy guilty threshold as
	// a rate over all diagnosed drops.
	threshold := c.cfg.System.Blame.GuiltyThreshold
	rate := 0.0
	if r.Diagnosed > 0 {
		rate = float64(r.HonestConvictions) / float64(r.Diagnosed)
	}
	r.addInvariant("honest-conviction-rate", rate < threshold,
		fmt.Sprintf("%d/%d = %.3f vs threshold %.2f", r.HonestConvictions, r.Diagnosed, rate, threshold))

	// Evidence staleness must widen uncertainty, never convict.
	r.addInvariant("stale-evidence-never-convicts", r.StaleConvictions == 0,
		fmt.Sprintf("%d convictions in %d stale sends", r.StaleConvictions, r.StaleSends))

	// Writes under partial outage always landed on a quorum.
	r.addInvariant("dht-write-quorum", r.PublishErrors == 0 && r.PutQuorumLost == 0,
		fmt.Sprintf("%d publish errors, %d sub-quorum writes", r.PublishErrors, r.PutQuorumLost))

	// Every chain ever published is still fetchable and verifiable,
	// through outages, churn, and rebalances.
	durable := true
	detail := ""
	for _, culprit := range sortedIDs(c.published) {
		chains, _, err := c.repo.FetchChecked(culprit)
		if err != nil {
			durable = false
			detail = fmt.Sprintf("fetch %s: %v", culprit.Short(), err)
			continue
		}
		r.ChainsFetched += len(chains)
		if len(chains) < c.published[culprit] {
			durable = false
			detail = fmt.Sprintf("%s: %d of %d chains survive", culprit.Short(), len(chains), c.published[culprit])
		}
	}
	if detail == "" {
		detail = fmt.Sprintf("%d published, %d fetched", r.ChainsPublished, r.ChainsFetched)
	}
	r.addInvariant("accusation-durability", durable, detail)

	r.addInvariant("rebalance-clean", r.RebalanceErrors == 0,
		fmt.Sprintf("%d errors", r.RebalanceErrors))

	// The failure injector's saturation accounting balances: links down
	// plus the owed deficit equals the configured target.
	balanced := r.DownLinks+r.InjectorDeficit == r.InjectorTarget
	r.addInvariant("injector-accounting", balanced,
		fmt.Sprintf("%d down + %d deficit vs target %d", r.DownLinks, r.InjectorDeficit, r.InjectorTarget))

	// The hardened hot paths surfaced no swallowed errors.
	clean := r.Counters.ArchiveRecordErrors == 0 && r.Counters.ProbeRescheduleErrors == 0 &&
		r.Injector.SetLinkErrors == 0 && r.Injector.ScheduleErrors == 0
	r.addInvariant("no-swallowed-errors", clean,
		fmt.Sprintf("archive=%d resched=%d setlink=%d sched=%d",
			r.Counters.ArchiveRecordErrors, r.Counters.ProbeRescheduleErrors,
			r.Injector.SetLinkErrors, r.Injector.ScheduleErrors))
}
