package campaign

import (
	"fmt"
	"math"
	"sort"
	"time"

	"concilium/internal/core"
	"concilium/internal/dht"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/parexec"
	"concilium/internal/reputation"
	"concilium/internal/topology"
)

// AdversaryConfig parameterizes one adversarial campaign. Its
// System.MaliciousFraction must be 0: strategies install their own
// attackers after construction, so the build stream stays
// attack-independent.
type AdversaryConfig struct {
	Deployment
	// Fractions is the attacker-fraction axis of the campaign grid,
	// ascending in (0, 1).
	Fractions []float64
	// Messages is the stewarded-traffic volume each cell routes.
	Messages int
	// AttackRounds is how many attack rounds interleave with the
	// traffic (floods, forged-chain pushes, vote spam).
	AttackRounds int
	// Limits hardens each cell's accusation repository; the spam and
	// collusion strategies are designed to trip them.
	Limits dht.RepoLimits
	// SanctionQuorum is the operating point of the repository
	// sanctioning policy: a host is sanctioned once this many distinct
	// (clique-discounted) accusers have verifiable chains against it.
	SanctionQuorum int
	// DropProb is the probabilistic droppers' per-message drop rate,
	// tuned against System.Window so the attacker hovers at the edge of
	// the (w,m) threshold.
	DropProb float64
	// DropPeriod is the deterministic selective droppers' period (drop
	// every DropPeriod-th forward).
	DropPeriod int
}

// ShortAdversaryConfig is the CI smoke campaign: a small overlay, the
// full strategy × fraction grid, a few seconds of wall time.
func ShortAdversaryConfig(seed uint64) AdversaryConfig {
	sys := core.DefaultSystemConfig()
	sys.Topology = topology.TestConfig()
	// A deep overlay: with the paper's 16-leaf sets, a ~45-node overlay
	// routes most messages directly inside the leaf set and attackers
	// almost never steward. ~86 nodes push leaf coverage under 20%, so
	// routes have interior hops and every cell's attackers get real
	// forwarding opportunities to abuse.
	sys.OverlayFraction = 0.9
	sys.MaliciousFraction = 0
	sys.ArchiveRetention = 5 * time.Minute
	sys.MaxProbeTime = time.Minute
	sys.HopLatency = 200 * time.Millisecond
	sys.Blame.MinProbesPerLink = 1
	// Sharp tomography: at the default 0.9 accuracy, an honest span of
	// eight-plus physical links dilutes Eq. 3 blame below the 0.4
	// guilty threshold (0.9^8 ≈ 0.43), exonerating a red-handed dropper
	// on longer routes. 0.97 keeps per-drop conviction decisive while
	// leaving a live false-conviction channel for the honest ROC.
	sys.Blame.ProbeAccuracy = 0.97
	// Calm background weather: the default 5% steady-state link outage
	// drowns the diagnosis signal in network blame before messages even
	// reach an attacker. A 1% floor keeps honest false convictions a
	// live possibility without burying the attack traffic.
	sys.Failures.DownFraction = 0.01
	// A short window with a low accusation threshold: the campaign's
	// droppers are tuned to hover at this edge, which is where the ROC
	// is interesting.
	sys.Window = core.WindowConfig{W: 20, M: 2}
	return AdversaryConfig{
		Deployment: Deployment{
			Seed:     seed,
			System:   sys,
			Replicas: 5,
			Warmup:   3 * time.Minute,
			Pace:     2 * time.Second,
		},
		Fractions: []float64{0.01, 0.05, 0.10, 0.20},
		// Overlay routes in the small test topology average under one
		// interior hop, so a single attacker stewards only ~2% of the
		// traffic; the volume is sized so even the f=1% cell gives its
		// lone dropper enough forwarding opportunities to cross the
		// window threshold it is tuned to hover at.
		Messages:     960,
		AttackRounds: 12,
		Limits: dht.RepoLimits{
			MaxPerAccuserPerKey: 1,
			MaxPerKey:           64,
			StaleAfter:          2 * time.Minute,
		},
		SanctionQuorum: 2,
		DropProb:       0.5,
		DropPeriod:     2,
	}
}

// Validate reports the first invalid field.
func (c AdversaryConfig) Validate() error {
	if err := c.Deployment.validate(); err != nil {
		return err
	}
	switch {
	case c.System.MaliciousFraction != 0:
		return fmt.Errorf("campaign: malicious fraction %v must be 0 (strategies install attackers)",
			c.System.MaliciousFraction)
	case len(c.Fractions) == 0:
		return fmt.Errorf("campaign: no attacker fractions")
	case c.Messages <= 0:
		return fmt.Errorf("campaign: messages %d must be positive", c.Messages)
	case c.AttackRounds <= 0 || c.AttackRounds > c.Messages:
		return fmt.Errorf("campaign: attack rounds %d out of [1, %d]", c.AttackRounds, c.Messages)
	case c.SanctionQuorum < 1:
		return fmt.Errorf("campaign: sanction quorum %d must be positive", c.SanctionQuorum)
	case c.DropProb <= 0 || c.DropProb >= 1 || math.IsNaN(c.DropProb):
		return fmt.Errorf("campaign: drop probability %v out of (0,1)", c.DropProb)
	case c.DropPeriod < 2:
		return fmt.Errorf("campaign: drop period %d must be at least 2", c.DropPeriod)
	}
	prev := 0.0
	for _, f := range c.Fractions {
		if f <= prev || f >= 1 || math.IsNaN(f) {
			return fmt.Errorf("campaign: fractions must ascend in (0,1), got %v after %v", f, prev)
		}
		prev = f
	}
	return c.Limits.Validate()
}

// RunAdversary executes an adversarial campaign and returns its
// report. Cells run in parallel; each derives every random decision
// from its own substream family, so the report is bit-identical for
// every Workers value. A panic inside a cell is recorded as a failed
// no-panic invariant rather than crashing the caller.
func RunAdversary(cfg AdversaryConfig) (*AdversaryReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(Strategies()))
	for _, s := range Strategies() {
		names = append(names, s.Name())
	}
	nf := len(cfg.Fractions)
	nCells := len(names) * nf
	cells := make([]CellResult, nCells)
	snaps := make([]metrics.Snapshot, nCells)
	root := rootSeed(cfg.Seed, adversaryNamespace)
	err := parexec.ForEach(cfg.Workers, nCells, func(ci int) error {
		// Fresh strategy instances per cell: strategies carry per-cell
		// state (the eclipse victim), so sharing across parallel cells
		// would race.
		strat := Strategies()[ci/nf]
		cell, snap, err := runCell(&cfg, strat, cfg.Fractions[ci%nf], root.Sub(uint64(ci)))
		cells[ci] = cell
		snaps[ci] = snap
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &AdversaryReport{
		Seed:       cfg.Seed,
		Strategies: names,
		Fractions:  append([]float64(nil), cfg.Fractions...),
		Cells:      cells,
	}
	rep.Metrics, err = metrics.MergeAll(snaps...)
	if err != nil {
		return nil, err
	}
	rep.finish(&cfg)
	return rep, nil
}

// topForwarders runs a stewarding census — every src→dst secure route
// in the overlay — and returns the n hosts that appear most often as
// interior hops. Under uniform traffic this is exactly the expected
// stewarding load, so the census finds the positions a real adversary
// would corrupt. Ties break by the order of members, the system's
// build order.
func topForwarders(sys *core.CompactSystem, members []id.ID, n int) ([]id.ID, error) {
	o := sys.Overlay
	stewards := make([]int, o.Size()) // by ring position
	var route []uint32
	for src := uint32(0); src < uint32(o.Size()); src++ {
		for dst := uint32(0); dst < uint32(o.Size()); dst++ {
			if src == dst {
				continue
			}
			var err error
			route, err = o.AppendRouteSecure(src, o.ID(dst), 0, route[:0])
			if err != nil {
				return nil, err
			}
			for i := 1; i+1 < len(route); i++ {
				stewards[route[i]]++
			}
		}
	}
	load := make(map[id.ID]int, len(members))
	for i, c := range stewards {
		load[o.ID(uint32(i))] = c
	}
	ranked := append([]id.ID(nil), members...)
	sort.SliceStable(ranked, func(i, j int) bool {
		return load[ranked[i]] > load[ranked[j]]
	})
	return ranked[:n], nil
}

// attackerCount sizes a cell's attacker set: round(f·N), at least one,
// never crowding out the honest majority.
func attackerCount(frac float64, n int) int {
	c := int(frac*float64(n) + 0.5)
	if c < 1 {
		c = 1
	}
	if c > n-4 {
		c = n - 4
	}
	return c
}

// runCell runs one (strategy, fraction) cell and returns its result
// and canonical metrics snapshot; a panic becomes cell.Panic.
func runCell(cfg *AdversaryConfig, strat Strategy, frac float64, seed parexec.Seed) (CellResult, metrics.Snapshot, error) {
	cell := CellResult{Strategy: strat.Name(), Fraction: frac}
	reg := metrics.NewRegistry()
	var err error
	cell.Panic, err = catchPanic(func() error {
		return playCell(cfg, strat, frac, seed, reg, &cell)
	})
	return cell, reg.Snapshot().Canonical(), err
}

// playCell builds one deployment, runs one strategy's attack campaign
// against live traffic, and computes the cell's conviction ROC. All
// randomness comes from three substreams of the cell seed — 0 builds
// the system, 1 drives traffic, 2 drives the attack — so the cell is a
// pure function of (campaign seed, cell index).
func playCell(cfg *AdversaryConfig, strat Strategy, frac float64, seed parexec.Seed, reg *metrics.Registry, cell *CellResult) error {
	// Cells are already the parallel axis: each builds with one worker.
	tb, err := cfg.build(1, seed.Stream(0), seed.Stream(1), reg)
	if err != nil {
		return err
	}
	if err := tb.repo.SetLimits(cfg.Limits); err != nil {
		return err
	}
	env := &Env{
		testbed:    tb,
		Cfg:        cfg,
		Suspector:  core.NewCliqueSuspector(),
		Board:      reputation.NewBoard(),
		Attack:     seed.Stream(2),
		Distrusted: make(map[id.ID]bool),
		cell:       cell,
	}
	// Arm the clique-discounting defense: the grouping is the identity
	// until repository abuse teaches the suspector who co-signs, after
	// which k colluders weigh as one witness in every verdict.
	tb.sys.Engine.SetWitnessGrouping(env.Suspector.Group)
	if err := tb.start(cfg.Warmup); err != nil {
		return err
	}

	// A positioning adversary: the attacker set is the nAtt hosts the
	// stewarding census ranks as carrying the most forwarding load.
	// Byzantine forwarders with no routing role are harmless, so a real
	// adversary corrupts the hosts traffic actually flows through — and
	// that is the set the defenses must convict. Behaviors are installed
	// by the strategy, never the engine.
	nAtt := attackerCount(frac, len(env.members))
	env.Attackers, err = topForwarders(tb.sys, env.members, nAtt)
	if err != nil {
		return err
	}
	env.refreshHonest()
	if err := strat.Setup(env); err != nil {
		return err
	}
	cell.Attackers = len(env.Attackers)

	// Interleave attack rounds with traffic batches; the final batch
	// absorbs the division remainder so exactly Messages route.
	batch := cfg.Messages / cfg.AttackRounds
	sent := 0
	for r := 0; r < cfg.AttackRounds; r++ {
		env.voteSpam()
		if err := strat.Round(env, r); err != nil {
			return err
		}
		n := batch
		if r == cfg.AttackRounds-1 {
			n = cfg.Messages - sent
		}
		if err := env.sendTraffic(n, cell.Strategy, env.tally); err != nil {
			return err
		}
		sent += n
	}

	cell.Curve, cell.Op, err = strat.Curve(env)
	if err != nil {
		return err
	}
	cell.Nodes = tb.sys.Size()
	cell.Suspected = env.Suspector.SuspectedCount()
	s := reg.Snapshot()
	cell.Rejections = CellRejections{
		RateLimited: s.Counters["dht/chains_rate_limited"],
		Duplicate:   s.Counters["dht/chains_duplicate"],
		Stale:       s.Counters["dht/chains_stale"],
	}

	// Reputation fallback tally. Voting rights are one-strike — stricter
	// than conviction: a single guilty verdict on record voids a host's
	// vote (until exonerated), while sanctions still need M. Without
	// this asymmetry, droppers hovering under the window threshold keep
	// their votes and can spam an honest victim into a quorum. Suspected
	// co-signers and detector-flagged hosts are voided too.
	trusted := func(v id.ID) bool {
		return !env.Suspector.Suspected(v) &&
			tb.sys.GuiltyCount(v) == 0 &&
			!env.Distrusted[v]
	}
	cell.RepAttackerRate = poorPeerRate(env.Board, env.Attackers, trusted, cfg.SanctionQuorum)
	cell.RepHonestRate = poorPeerRate(env.Board, env.Honest, trusted, cfg.SanctionQuorum)
	return nil
}

// tally accounts one delivery report: counters, reputation votes from
// honest stewards that issued guilty verdicts, and chain publication
// into the hardened repository.
func (e *Env) tally(rep *core.DeliveryReport) {
	e.cell.Sent++
	if rep.Delivered && rep.AckReceived {
		e.cell.Delivered++
	}
	if len(rep.Verdicts) > 0 {
		e.cell.Diagnosed++
	}
	if rep.Kind == core.DropByNode && e.attSet[rep.DroppedBy] {
		e.cell.AttackerDrops++
	}
	for vi, v := range rep.Verdicts {
		if !v.Guilty {
			continue
		}
		accuser := rep.Route[vi]
		if i, ok := e.sys.Overlay.IndexOf(accuser); ok && e.sys.Behavior(i).Honest() {
			e.castVote(accuser, v.Judged)
		}
	}
	if rep.Culprit != (id.ID{}) {
		e.cell.Convictions++
	}
	if rep.Chain != nil {
		e.publish(rep.Chain, true)
	}
}

// voteSpam is the attackers' reputation attack, run every round: the
// whole attacker set piles no-confidence votes onto one honest victim.
// The trusted-voter filter is what should keep those votes from
// reaching the sanctioning quorum.
func (e *Env) voteSpam() {
	if len(e.Honest) == 0 {
		return
	}
	victim := e.pickVictim()
	for _, a := range e.Attackers {
		e.castVote(a, victim)
	}
}

// poorPeerRate is the fraction of hosts the board's trusted quorum
// declares a poor peer.
func poorPeerRate(b *reputation.Board, hosts []id.ID, trusted func(id.ID) bool, quorum int) float64 {
	if len(hosts) == 0 {
		return 0
	}
	var n int
	for _, h := range hosts {
		if b.PoorPeer(h, trusted, quorum) {
			n++
		}
	}
	return float64(n) / float64(len(hosts))
}

// finish evaluates the campaign invariants in a fixed order.
func (r *AdversaryReport) finish(cfg *AdversaryConfig) {
	const lowF = 0.10 + 1e-9

	clean := true
	detail := ""
	for i := range r.Cells {
		if r.Cells[i].Panic != "" {
			clean = false
			detail = fmt.Sprintf("%s f=%.2f: %s", r.Cells[i].Strategy, r.Cells[i].Fraction, r.Cells[i].Panic)
		}
	}
	r.addInvariant("no-panic", clean, detail)

	// The campaign's headline contract: at the configured operating
	// point, every strategy convicts attackers at a strictly higher
	// rate than honest hosts, for every attacker fraction up to 10%.
	sep, sepDetail := true, ""
	worst := 1.0
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Fraction > lowF {
			continue
		}
		margin := c.Op.AttackerRate - c.Op.HonestRate
		if margin <= 0 {
			sep = false
			sepDetail = fmt.Sprintf("%s f=%.2f: attacker %.3f vs honest %.3f",
				c.Strategy, c.Fraction, c.Op.AttackerRate, c.Op.HonestRate)
		} else if margin < worst {
			worst = margin
		}
	}
	if sepDetail == "" {
		sepDetail = fmt.Sprintf("worst margin %.3f", worst)
	}
	r.addInvariant("roc-separation", sep, sepDetail)

	bound, boundDetail := true, ""
	worstHonest := 0.0
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Fraction > lowF {
			continue
		}
		if c.Op.HonestRate > worstHonest {
			worstHonest = c.Op.HonestRate
		}
		if c.Op.HonestRate > 0.10 {
			bound = false
			boundDetail = fmt.Sprintf("%s f=%.2f: honest rate %.3f", c.Strategy, c.Fraction, c.Op.HonestRate)
		}
	}
	if boundDetail == "" {
		boundDetail = fmt.Sprintf("worst honest rate %.3f", worstHonest)
	}
	r.addInvariant("honest-conviction-bound", bound, boundDetail)

	flows, flowsDetail := true, ""
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Sent != cfg.Messages || c.Delivered == 0 || c.Diagnosed == 0 {
			flows = false
			flowsDetail = fmt.Sprintf("%s f=%.2f: sent=%d delivered=%d diagnosed=%d",
				c.Strategy, c.Fraction, c.Sent, c.Delivered, c.Diagnosed)
		}
	}
	if flowsDetail == "" {
		flowsDetail = fmt.Sprintf("%d msgs per cell", cfg.Messages)
	}
	r.addInvariant("overlay-still-routing", flows, flowsDetail)

	pubClean, pubDetail := true, ""
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.PublishErrors > 0 || c.VoteErrors > 0 || c.RebalanceErrors > 0 {
			pubClean = false
			pubDetail = fmt.Sprintf("%s f=%.2f: publish=%d vote=%d rebalance=%d",
				c.Strategy, c.Fraction, c.PublishErrors, c.VoteErrors, c.RebalanceErrors)
		}
	}
	r.addInvariant("no-swallowed-errors", pubClean, pubDetail)

	// The flood strategies must actually exercise the repository's
	// hardening: a campaign where nothing was rejected tested nothing.
	hard, hardDetail := true, ""
	var totalRej uint64
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Strategy != "accusation-spam" && c.Strategy != "collusion" {
			continue
		}
		totalRej += c.Rejections.Total()
		if c.Rejections.Total() == 0 {
			hard = false
			hardDetail = fmt.Sprintf("%s f=%.2f: no hardening rejections", c.Strategy, c.Fraction)
		}
	}
	if hardDetail == "" {
		hardDetail = fmt.Sprintf("%d rejections across flood cells", totalRej)
	}
	r.addInvariant("repo-hardening-exercised", hard, hardDetail)

	// Co-signed floods expose the clique: every flood cell with at
	// least two attackers ends with the pair (or more) suspected.
	cliq, cliqDetail := true, ""
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Strategy != "accusation-spam" && c.Strategy != "collusion" || c.Attackers < 2 {
			continue
		}
		if c.Suspected < 2 {
			cliq = false
			cliqDetail = fmt.Sprintf("%s f=%.2f: %d suspected of %d attackers",
				c.Strategy, c.Fraction, c.Suspected, c.Attackers)
		}
	}
	r.addInvariant("clique-suspected", cliq, cliqDetail)

	// The reputation fallback must not be hijackable: trusted
	// no-confidence quorums sanction attackers at least as often as
	// honest hosts at every low fraction, up to a single collateral
	// sanction — one falsely-convicted honest host voted down by honest
	// peers is the diagnosis noise floor (already bounded by
	// honest-conviction-bound), not vote capture.
	repOK, repDetail := true, ""
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Fraction > lowF {
			continue
		}
		honestN := c.Nodes - c.Attackers
		excess := (c.RepHonestRate - c.RepAttackerRate) * float64(honestN)
		if excess > 1+1e-9 {
			repOK = false
			repDetail = fmt.Sprintf("%s f=%.2f: honest %.3f above attacker %.3f (%.1f hosts)",
				c.Strategy, c.Fraction, c.RepHonestRate, c.RepAttackerRate, excess)
		}
	}
	r.addInvariant("reputation-not-hijacked", repOK, repDetail)
}
