package campaign

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/topology"
)

// ChaosConfig parameterizes one chaos campaign.
type ChaosConfig struct {
	Deployment
	// ReplicaOutage is the number of concurrently faulty DHT members
	// during the outage episode. Keeping it at or below
	// (Replicas-1)/2 preserves per-key quorum, which is what makes the
	// durability invariant checkable.
	ReplicaOutage int
	// MessagesPerPhase is the stewarded-traffic volume each fault
	// episode routes.
	MessagesPerPhase int
	// ChurnRounds is the number of crash/join rounds in the churn
	// episode.
	ChurnRounds int
	// ProbeLoss is the sweep-loss probability during the probe-loss
	// episode.
	ProbeLoss float64
	// SilentLeaves is how many nodes stop publishing probes during the
	// leaf-silence episode.
	SilentLeaves int
}

// ShortChaosConfig is the CI smoke campaign: a small overlay, one
// episode of each fault kind, a few churn rounds. Runs in a few
// seconds.
func ShortChaosConfig(seed uint64) ChaosConfig {
	sys := core.DefaultSystemConfig()
	sys.Topology = topology.TestConfig()
	sys.OverlayFraction = 0.5
	sys.MaliciousFraction = 0.1
	sys.ArchiveRetention = 5 * time.Minute
	sys.MaxProbeTime = time.Minute
	// Slow hops give churn events a mid-flight window to land in.
	sys.HopLatency = 200 * time.Millisecond
	// The degraded-verdict contract needs an evidence floor: without
	// it, an emptied admissibility window convicts (the paper's Eq. 2
	// on zero evidence), and the staleness episode could not be told
	// apart from real guilt.
	sys.Blame.MinProbesPerLink = 1
	return ChaosConfig{
		Deployment: Deployment{
			Seed:     seed,
			System:   sys,
			Replicas: 5,
			Warmup:   3 * time.Minute,
			Pace:     2 * time.Second,
		},
		ReplicaOutage:    2,
		MessagesPerPhase: 10,
		ChurnRounds:      4,
		ProbeLoss:        0.4,
		SilentLeaves:     3,
	}
}

// LongChaosConfig is the soak variant: same faults, more traffic and
// churn.
func LongChaosConfig(seed uint64) ChaosConfig {
	cfg := ShortChaosConfig(seed)
	cfg.MessagesPerPhase = 30
	cfg.ChurnRounds = 10
	cfg.Warmup = 5 * time.Minute
	return cfg
}

// Validate reports the first invalid field.
func (c ChaosConfig) Validate() error {
	if err := c.Deployment.validate(); err != nil {
		return err
	}
	switch {
	case c.ReplicaOutage < 1 || c.ReplicaOutage > (c.Replicas-1)/2:
		return fmt.Errorf("campaign: replica outage %d outside [1, %d] (quorum bound for %d replicas)",
			c.ReplicaOutage, (c.Replicas-1)/2, c.Replicas)
	case c.MessagesPerPhase <= 0:
		return fmt.Errorf("campaign: messages per phase %d must be positive", c.MessagesPerPhase)
	case c.ChurnRounds < 0:
		return fmt.Errorf("campaign: churn rounds %d negative", c.ChurnRounds)
	case c.ProbeLoss <= 0 || c.ProbeLoss >= 1 || math.IsNaN(c.ProbeLoss):
		return fmt.Errorf("campaign: probe loss %v out of (0,1)", c.ProbeLoss)
	case c.SilentLeaves <= 0:
		return fmt.Errorf("campaign: silent leaves %d must be positive", c.SilentLeaves)
	}
	return nil
}

// chaosCampaign is one running chaos campaign: the deployment, the
// fault-schedule substream, and the accumulating report.
type chaosCampaign struct {
	*testbed
	cfg   ChaosConfig
	sched *rand.Rand

	rep       ChaosReport
	published map[id.ID]int // culprit -> chains successfully published
	departed  map[id.ID]bool
	stale     bool // inside the evidence-staleness episode
	dtest     core.DensityTest
}

// RunChaos executes a chaos campaign and returns its report. A panic
// anywhere in the campaign is recorded as a failed no-panic invariant
// rather than crashing the caller — the campaign's own first contract.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &chaosCampaign{
		cfg:       cfg,
		published: make(map[id.ID]int),
		departed:  make(map[id.ID]bool),
	}
	c.rep.Seed = cfg.Seed
	panicked, err := catchPanic(c.run)
	if err != nil {
		return nil, err
	}
	c.rep.addInvariant("no-panic", panicked == "", panicked)
	return &c.rep, nil
}

func (c *chaosCampaign) run() error {
	// Independent substreams: the system's event randomness, the fault
	// schedule, and traffic pair selection never perturb each other, so
	// episodes can be reordered or resized without rewriting history.
	root := rootSeed(c.cfg.Seed, chaosNamespace)
	c.sched = root.Stream(1)
	tb, err := c.cfg.build(c.cfg.Workers, root.Stream(0), root.Stream(2), metrics.NewRegistry())
	if err != nil {
		return err
	}
	c.testbed = tb
	c.rep.Nodes = len(tb.members)
	if c.dtest, err = core.NewDensityTest(2.0); err != nil {
		return err
	}
	if err := tb.start(c.cfg.Warmup); err != nil {
		return err
	}
	for _, phase := range []func() error{
		c.phaseBaseline,
		c.phaseProbeLoss,
		c.phaseSilentLeaves,
		c.phaseReplicaOutage,
		c.phaseStaleEvidence,
		c.phaseChurn,
	} {
		if err := phase(); err != nil {
			return err
		}
	}
	c.finish()
	return nil
}

// phaseBaseline routes traffic with only the background link-failure
// process active — the control the fault episodes are compared to.
func (c *chaosCampaign) phaseBaseline() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "link-failures")
	return c.sendTraffic(c.cfg.MessagesPerPhase, "baseline", c.tally)
}

// phaseProbeLoss eats whole probe sweeps at random, thinning the
// evidence archive without emptying it.
func (c *chaosCampaign) phaseProbeLoss() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "probe-loss")
	if err := c.sys.SetProbeLoss(c.cfg.ProbeLoss); err != nil {
		return err
	}
	c.sys.Run(time.Minute)
	if err := c.sendTraffic(c.cfg.MessagesPerPhase, "probe-loss", c.tally); err != nil {
		return err
	}
	return c.sys.SetProbeLoss(0)
}

// pickDistinct draws n distinct members from the fault schedule.
func (c *chaosCampaign) pickDistinct(n int) []id.ID {
	n = min(n, len(c.members))
	picked := make([]id.ID, 0, n)
	for len(picked) < n {
		cand := c.members[c.sched.IntN(len(c.members))]
		dup := false
		for _, x := range picked {
			dup = dup || x == cand
		}
		if !dup {
			picked = append(picked, cand)
		}
	}
	return picked
}

// phaseSilentLeaves silences a scheduled set of tomography leaves —
// nodes that stay in the overlay but stop reporting.
func (c *chaosCampaign) phaseSilentLeaves() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "leaf-silence")
	silenced := c.pickDistinct(c.cfg.SilentLeaves)
	for _, nid := range silenced {
		if err := c.sys.SetNodeSilent(nid, true); err != nil {
			return err
		}
	}
	c.sys.Run(time.Minute)
	if err := c.sendTraffic(c.cfg.MessagesPerPhase, "leaf-silence", c.tally); err != nil {
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
func (c *chaosCampaign) phaseReplicaOutage() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "dht-outage")
	faulty := c.pickDistinct(c.cfg.ReplicaOutage)
	for _, nid := range faulty {
		if err := c.store.SetFaulty(nid, true); err != nil {
			return err
		}
	}
	if err := c.sendTraffic(c.cfg.MessagesPerPhase, "dht-outage", c.tally); err != nil {
		return err
	}
	for _, nid := range faulty {
		if err := c.store.SetFaulty(nid, false); err != nil {
			return err
		}
	}
	return c.sendTraffic(c.cfg.MessagesPerPhase/2+1, "dht-repaired", c.tally)
}

// phaseStaleEvidence pauses all probe publication for well past Δ, so
// sends see an admissibility window with nothing in it. The contract:
// blame must degrade to widened-uncertainty verdicts, never convict.
func (c *chaosCampaign) phaseStaleEvidence() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "stale-evidence")
	delta := c.sys.Config.Blame.Delta
	c.sys.SuppressProbes(true)
	c.sys.Run(2*delta + delta/2)
	c.stale = true
	if err := c.sendTraffic(c.cfg.MessagesPerPhase, "stale-evidence", c.tally); err != nil {
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
func (c *chaosCampaign) phaseChurn() error {
	c.rep.FaultKinds = append(c.rep.FaultKinds, "churn")
	s := c.sys
	for r := 0; r < c.cfg.ChurnRounds; r++ {
		if s.Size() > 6 {
			victim := c.members[c.sched.IntN(len(c.members))]
			err := s.Sim.ScheduleAfter(150*time.Millisecond, func() {
				if s.Size() <= 5 {
					return
				}
				if err := s.FailNode(victim); err != nil {
					return
				}
				c.members = s.AliveIDs()
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
		if err := c.sendTraffic(c.cfg.MessagesPerPhase/2+1, "churn", c.tally); err != nil {
			return err
		}
		c.checkRouting()
		if r%2 == 1 {
			hosts := s.Topo.EndHosts()
			if _, err := s.JoinNode(hosts[c.sched.IntN(len(hosts))]); err != nil {
				return err
			}
			c.members = s.AliveIDs()
			if err := c.store.Rebalance(s.Overlay.Ring()); err != nil {
				c.rep.RebalanceErrors++
			}
			c.checkRouting()
		}
		s.Run(time.Minute)
	}
	return nil
}

// tally accounts one delivery report and publishes its accusation
// chain into the DHT.
func (c *chaosCampaign) tally(rep *core.DeliveryReport) {
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
func (c *chaosCampaign) checkRouting() {
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
func (c *chaosCampaign) finish() {
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
