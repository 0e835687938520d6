package core

import (
	"crypto/ed25519"
	"fmt"
	"math"
	"strconv"
	"time"

	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/netsim"
	"concilium/internal/overlay"
	"concilium/internal/parexec"
	"concilium/internal/sigcrypto"
	"concilium/internal/stats"
	"concilium/internal/tomography"
	"concilium/internal/topology"
	"concilium/internal/trace"
	"concilium/internal/wiresize"
)

// SystemConfig assembles a complete simulated Concilium deployment.
type SystemConfig struct {
	// Topology generates the underlying IP network.
	Topology topology.Config
	// OverlayFraction selects this share of end hosts as overlay nodes
	// (the paper uses 3%).
	OverlayFraction float64
	// Blame parameterizes fault attribution.
	Blame BlameConfig
	// Window parameterizes formal accusations.
	Window WindowConfig
	// MaxProbeTime bounds the randomized lightweight-probe period
	// (the paper's evaluation uses 120 s).
	MaxProbeTime time.Duration
	// HopLatency is the per-IP-link propagation delay; message and
	// acknowledgment legs advance virtual time by it, so link state can
	// genuinely change mid-flight (0 uses netsim's 2 ms default).
	HopLatency time.Duration
	// Failures drives the link-failure injector.
	Failures netsim.FailureConfig
	// MaliciousFraction marks this share of nodes as droppers+liars.
	MaliciousFraction float64
	// ArchiveRetention prunes probe records older than this (0 keeps
	// everything; experiments set a few minutes to bound memory).
	ArchiveRetention time.Duration
	// SignedSnapshots routes every probe result through the full §3.2
	// pipeline: the prober signs a tomographic snapshot and receivers
	// verify the signature before archiving. Costs one signature and
	// one verification per probe; large-scale experiments leave it off.
	SignedSnapshots bool
	// Tracer receives structured protocol events (probes, verdicts,
	// accusations, link churn). Nil disables tracing.
	Tracer trace.Recorder
	// Metrics receives the system's quantitative metrics (probe RTT
	// histograms, blame latency, bytes on wire per message class).
	// Nil discards them; the hot-path cost of a live registry is a few
	// uncontended atomic adds per event, and every metric except the
	// reserved wall-clock class is deterministic for a fixed seed.
	Metrics *metrics.Registry
	// Workers bounds the worker pool used for the parallel parts of
	// system construction: per-node keygen and certificate issuance,
	// routing-state fills, and tomography-tree building (<= 0 selects
	// GOMAXPROCS). Per-node randomness comes from substreams indexed by
	// node position, so the built system is byte-identical for every
	// worker count; see BuildSystem for the determinism contract.
	Workers int
}

// DefaultSystemConfig returns a medium-scale deployment with the
// paper's protocol parameters.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		Topology:        topology.DefaultConfig(),
		OverlayFraction: 0.03,
		Blame:           DefaultBlameConfig(),
		Window:          DefaultWindowConfig(),
		MaxProbeTime:    2 * time.Minute,
		Failures:        netsim.DefaultFailureConfig(),
	}
}

// Validate reports the first invalid field.
func (c SystemConfig) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.OverlayFraction <= 0 || c.OverlayFraction > 1 || math.IsNaN(c.OverlayFraction) {
		return fmt.Errorf("core: overlay fraction %v out of (0,1]", c.OverlayFraction)
	}
	if err := c.Blame.Validate(); err != nil {
		return err
	}
	if err := c.Window.Validate(); err != nil {
		return err
	}
	if c.MaxProbeTime <= 0 {
		return fmt.Errorf("core: max probe time %v must be positive", c.MaxProbeTime)
	}
	if err := c.Failures.Validate(); err != nil {
		return err
	}
	if c.MaliciousFraction < 0 || c.MaliciousFraction >= 1 || math.IsNaN(c.MaliciousFraction) {
		return fmt.Errorf("core: malicious fraction %v out of [0,1)", c.MaliciousFraction)
	}
	if c.ArchiveRetention < 0 {
		return fmt.Errorf("core: archive retention %v negative", c.ArchiveRetention)
	}
	if c.HopLatency < 0 {
		return fmt.Errorf("core: hop latency %v negative", c.HopLatency)
	}
	return nil
}

// System is a complete simulated deployment: IP topology, event-driven
// network with failure injection, a secure overlay with per-node
// Concilium state, and a shared probe archive modeling snapshot
// dissemination across the forest.
type System struct {
	Config  SystemConfig
	Topo    *topology.Graph
	Sim     *netsim.Simulator
	Net     *netsim.Network
	CA      *sigcrypto.Authority
	Ring    *overlay.Ring
	Nodes   map[id.ID]*Node
	Order   []id.ID // deterministic node order
	Archive *tomography.Archive
	Engine  *BlameEngine
	Window  *VerdictWindow

	Injector *netsim.FailureInjector
	// Counters surfaces errors and degradations that would otherwise be
	// swallowed on hot paths, for the chaos invariant report.
	Counters SystemCounters

	rng     stats.Rand
	met     systemMetrics
	probing bool
	// lastPrune rate-limits archive pruning: a prune sweeps every link's
	// record list, so doing it per probe would be quadratic in practice.
	lastPrune netsim.Time

	// Hot-path caches and scratch arenas (DESIGN.md §9). All model code
	// runs in simulator callbacks on one goroutine, so none of this is
	// locked. states caches the id → routing-state map that route tracing
	// consumes; churn patches it in place (pointers stay valid because
	// ApplyJoin/ApplyDeparture mutate states rather than replacing them).
	// bfsCache holds one shortest-path tree per root router, valid for
	// the lifetime of the (immutable) graph it was computed against. The
	// scratch slices are reused across SendMessage and probe sweeps;
	// anything built in them that escapes into a report or the archive is
	// copied out first.
	states       map[id.ID]*overlay.RoutingState
	bfsCache     map[topology.RouterID]*topology.RouteTree
	bfsGraph     *topology.Graph
	obsScratch   []tomography.LinkObservation
	peerScratch  []id.ID
	routeScratch []id.ID
	pathScratch  [][]topology.LinkID
	spanScratch  []topology.LinkID

	// Chaos-injection hooks: all default-off, so the unperturbed system
	// consumes exactly the same random stream as before they existed.
	probeLoss        float64
	probesSuppressed bool
	silent           map[id.ID]bool
}

// SystemCounters aggregates swallowed-error and fault-injection events.
// The chaos campaign prints them; zero values mean the corresponding
// path never slipped.
type SystemCounters struct {
	// ArchiveRecordErrors counts probe results the archive refused.
	ArchiveRecordErrors uint64
	// ProbeRescheduleErrors counts probe loops that died because the
	// next sweep could not be scheduled.
	ProbeRescheduleErrors uint64
	// ProbesLost counts whole sweeps eaten by injected packet loss.
	ProbesLost uint64
	// ProbesSuppressed counts sweeps skipped by suppression or silence.
	ProbesSuppressed uint64
	// GhostProbesStopped counts probe loops halted because their node
	// departed the overlay.
	GhostProbesStopped uint64
	// ChurnDrops counts deliveries that died because a route member
	// departed mid-flight.
	ChurnDrops uint64
	// ChainsUnavailable counts diagnoses whose accusation chain could
	// not be assembled because a participant departed mid-diagnosis.
	ChainsUnavailable uint64
}

// systemMetrics caches the system's metric handles so the hot paths
// pay only atomic adds, never registry map lookups. All handles are
// nil (safe discards) when no registry is configured.
type systemMetrics struct {
	probeSweeps   *metrics.Counter
	probeRTT      *metrics.Histogram
	probeBytes    *metrics.Counter
	snapshotBytes *metrics.Counter
	msgsSent      *metrics.Counter
	msgsDelivered *metrics.Counter
	msgBytes      *metrics.Counter
	ackBytes      *metrics.Counter
	blameCalls    *metrics.Counter
	blameWall     *metrics.Histogram
	blameProbes   *metrics.Histogram
	chainLen      *metrics.Histogram
}

func newSystemMetrics(r *metrics.Registry) systemMetrics {
	return systemMetrics{
		probeSweeps:   r.Counter("core/probe_sweeps"),
		probeRTT:      r.MustHistogram("core/probe_rtt_ns", metrics.LatencyBuckets),
		probeBytes:    r.Counter("wire/probe_bytes"),
		snapshotBytes: r.Counter("wire/snapshot_bytes"),
		msgsSent:      r.Counter("core/messages_sent"),
		msgsDelivered: r.Counter("core/messages_delivered"),
		msgBytes:      r.Counter("wire/message_bytes"),
		ackBytes:      r.Counter("wire/ack_bytes"),
		blameCalls:    r.Counter("core/blame_calls"),
		blameWall:     r.MustHistogram("core/blame_wallns", metrics.LatencyBuckets),
		blameProbes:   r.MustHistogram("core/blame_probes", metrics.CountBuckets),
		chainLen:      r.MustHistogram("core/accusation_chain_len", metrics.CountBuckets),
	}
}

// BuildSystem constructs the deployment deterministically from cfg and
// rng: topology, certificates, routing state, and tomography trees. No
// events are scheduled yet; call StartProbing and StartFailures, then
// drive s.Sim.
//
// Construction is parallel but scheduling-independent. The contract
// (DESIGN.md §10):
//
//   - The shared rng is consumed only by the serial prefix — topology,
//     host permutation, the CA keypair — and by a single SeedFrom call
//     that derives the build's substream family. Node i then draws
//     exclusively from its own substreams: Stream(2i) for keygen and
//     identifier assignment, Stream(2i+1) for routing-state fills.
//   - Phase 1 (keygen/issuance) writes index-addressed slots; the merge
//     back into Nodes/Order/members is serial in index order, including
//     the (vanishingly rare) identifier-collision redraws, which come
//     from the colliding node's own substream.
//   - Phase 2 (routing state + tomography trees) runs against the
//     completed ring and node table, both read-only from that point;
//     each worker reuses private BFS and leaf scratch, fully
//     overwritten per node.
//
// The result is byte-identical for every Workers value, including 1.
func BuildSystem(cfg SystemConfig, rng stats.Rand) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	graph, err := topology.Generate(cfg.Topology, rng)
	if err != nil {
		return nil, err
	}
	sim := netsim.NewSimulator()
	netOpts := []netsim.NetworkOption{netsim.WithMetrics(cfg.Metrics)}
	if cfg.HopLatency > 0 {
		netOpts = append(netOpts, netsim.WithHopLatency(cfg.HopLatency))
	}
	if cfg.Tracer != nil {
		netOpts = append(netOpts, netsim.WithLinkWatcher(func(l topology.LinkID, down bool) {
			kind := trace.KindLinkRepaired
			if down {
				kind = trace.KindLinkFailed
			}
			cfg.Tracer.Record(trace.Event{At: sim.Now(), Kind: kind, Link: l})
		}))
	}
	net, err := netsim.NewNetwork(graph, sim, rng, netOpts...)
	if err != nil {
		return nil, err
	}

	hosts := graph.EndHosts()
	nOverlay := int(cfg.OverlayFraction * float64(len(hosts)))
	if nOverlay < 4 {
		return nil, fmt.Errorf("core: only %d overlay nodes from %d hosts; increase scale", nOverlay, len(hosts))
	}
	// Deterministic host sample without replacement.
	perm := make([]int, len(hosts))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}

	ca := sigcrypto.NewAuthority(sigcrypto.KeyPairFromRand(rng), rng)
	s := &System{
		Config:  cfg,
		Topo:    graph,
		Sim:     sim,
		Net:     net,
		CA:      ca,
		Nodes:   make(map[id.ID]*Node, nOverlay),
		Archive: tomography.NewArchive(),
		rng:     rng,
		met:     newSystemMetrics(cfg.Metrics),
	}
	s.Archive.SetMetrics(cfg.Metrics)

	// Last shared-rng draws of the build: everything per-node below comes
	// from substreams of buildSeed, indexed by node position.
	buildSeed := parexec.SeedFrom(rng)

	// Phase 1: keygen and certificate issuance, fanned out. Ed25519
	// signing is deterministic and IssueFor touches no authority state,
	// so slot i's certificate depends only on its substream.
	type issuedSlot struct {
		keys sigcrypto.KeyPair
		cert sigcrypto.Certificate
		rng  stats.Rand
	}
	slots := make([]issuedSlot, nOverlay)
	err = parexec.ForEachWorker(cfg.Workers, nOverlay, "build-keygen", func(_, i int) error {
		stream := buildSeed.Stream(2 * uint64(i))
		keys := sigcrypto.KeyPairFromRand(stream)
		cert, err := ca.IssueFor(hostAddr(hosts[perm[i]]), id.Random(stream), keys.Public)
		if err != nil {
			return err
		}
		slots[i] = issuedSlot{keys: keys, cert: cert, rng: stream}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Serial merge in index order. Identifier collisions (~2^-128 per
	// pair) redraw from the colliding node's own substream, so even that
	// path is scheduling-independent.
	members := make([]id.ID, 0, nOverlay)
	for i := range slots {
		slot := &slots[i]
		for ca.Claim(slot.cert.NodeID) != nil {
			slot.cert, err = ca.IssueFor(slot.cert.Addr, id.Random(slot.rng), slot.keys.Public)
			if err != nil {
				return nil, err
			}
		}
		node := &Node{Cert: slot.cert, Keys: slot.keys, Router: hosts[perm[i]]}
		s.Nodes[slot.cert.NodeID] = node
		s.Order = append(s.Order, slot.cert.NodeID)
		members = append(members, slot.cert.NodeID)
	}
	s.Ring, err = overlay.NewRing(members)
	if err != nil {
		return nil, err
	}

	// Mark malicious nodes.
	nBad := int(cfg.MaliciousFraction * float64(nOverlay))
	for i := 0; i < nBad; i++ {
		s.Nodes[s.Order[i]].Behavior = Behavior{DropsMessages: true, InvertsProbes: true}
	}

	// Phase 2: routing state and tomography trees, fanned out. The ring
	// and node table are complete and read-only from here; node i's
	// standard-table draws come from Stream(2i+1), and each worker reuses
	// its own BFS and leaf scratch (fully overwritten per node).
	type buildScratch struct {
		bfs    topology.BFSScratch
		peers  []id.ID
		leaves []tomography.Leaf
	}
	scratch := make([]buildScratch, parexec.Workers(cfg.Workers))
	err = parexec.ForEachWorker(cfg.Workers, len(s.Order), "build-routing", func(w, i int) error {
		sc := &scratch[w]
		nid := s.Order[i]
		node := s.Nodes[nid]
		routing, err := overlay.BuildRoutingState(nid, s.Ring, buildSeed.Stream(2*uint64(i)+1))
		if err != nil {
			return err
		}
		node.Routing = routing
		sc.peers = routing.AppendRoutingPeers(sc.peers[:0])
		sc.leaves = sc.leaves[:0]
		for _, p := range sc.peers {
			sc.leaves = append(sc.leaves, tomography.Leaf{Node: p, Router: s.Nodes[p].Router})
		}
		bfs, err := graph.BFSInto(&sc.bfs, node.Router)
		if err != nil {
			return err
		}
		tree, err := tomography.BuildTreeBFS(bfs, nid, node.Router, sc.leaves)
		if err != nil {
			return err
		}
		node.Tree = tree
		return nil
	})
	if err != nil {
		return nil, err
	}

	s.Engine, err = NewBlameEngine(s.Archive, cfg.Blame, WithRecordFilter(s.collusionFilter))
	if err != nil {
		return nil, err
	}
	s.Window, err = NewVerdictWindow(cfg.Window)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// hostAddr formats a node's network address from its attachment router.
// strconv.Itoa instead of fmt.Sprintf: issuance runs once per node and
// the Sprintf boxing showed up in build-phase profiles.
func hostAddr(router topology.RouterID) string {
	return "host-" + strconv.Itoa(int(router))
}

// collusionFilter implements the §4.3 adversary: colluding probers
// adapt their published results to the judgment — links up when a
// target is judged (framing it), links down when an ally is (excusing
// it as a network fault). Allies are fellow clique members when the
// prober belongs to a clique, and any fellow dropper otherwise. Node
// lookup is a map hit, so the judged node's handle goes unused.
func (s *System) collusionFilter(judged id.ID, _ tomography.ProberHandle, rec tomography.ProbeRecord) (tomography.ProbeRecord, bool) {
	prober := s.Nodes[s.Archive.ProberID(rec.Prober)]
	if prober == nil || !prober.Behavior.InvertsProbes {
		return rec, true
	}
	ally := false
	if judgedNode := s.Nodes[judged]; judgedNode != nil {
		if c := prober.Behavior.Clique; c != 0 {
			ally = judgedNode.Behavior.Clique == c
		} else {
			ally = judgedNode.Behavior.DropsMessages
		}
	}
	rec.Up = !ally
	return rec, true
}

// SetBehavior installs a node's (mis)behavior policy at runtime — the
// adversary campaign's hook for marking attackers after construction.
// Like the chaos hooks, restoring the zero Behavior restores full
// protocol compliance (and the unperturbed random stream).
func (s *System) SetBehavior(nid id.ID, b Behavior) error {
	n, ok := s.Nodes[nid]
	if !ok {
		return fmt.Errorf("core: unknown node %s", nid.Short())
	}
	if b.DropProb < 0 || b.DropProb >= 1 || math.IsNaN(b.DropProb) {
		return fmt.Errorf("core: drop probability %v out of [0,1)", b.DropProb)
	}
	if b.DropPeriod < 0 {
		return fmt.Errorf("core: drop period %d negative", b.DropPeriod)
	}
	n.Behavior = b
	return nil
}

// Keys returns the CA-backed key directory for snapshot and accusation
// verification.
func (s *System) Keys() KeyDirectory {
	return func(x id.ID) (ed25519.PublicKey, bool) {
		n, ok := s.Nodes[x]
		if !ok {
			return nil, false
		}
		return n.Keys.Public, true
	}
}

// OverlayPaths returns every (host → routing peer) IP path — the
// candidate set for the failure injector and the denominators for the
// coverage experiment.
func (s *System) OverlayPaths() [][]topology.LinkID {
	var out [][]topology.LinkID
	for _, nid := range s.Order {
		for _, leaf := range s.Nodes[nid].Tree.Leaves {
			out = append(out, leaf.Path)
		}
	}
	return out
}

// StartFailures begins the link-failure process over the overlay paths.
func (s *System) StartFailures() error {
	inj, err := netsim.NewFailureInjector(s.Net, s.rng, s.OverlayPaths(), s.Config.Failures)
	if err != nil {
		return err
	}
	s.Injector = inj
	return inj.Start()
}

// StartProbing schedules every node's randomized lightweight probing
// loop: each node observes its tree's links (with the configured probe
// accuracy) and publishes the results into the shared archive, modeling
// snapshot dissemination (§3.2). Colluders' records are stored truthfully
// and flipped at judgment time by the collusion filter, matching the
// paper's adaptive adversary.
func (s *System) StartProbing() error {
	if s.probing {
		return fmt.Errorf("core: probing already started")
	}
	s.probing = true
	for _, nid := range s.Order {
		node := s.Nodes[nid]
		if err := s.scheduleProbe(node); err != nil {
			return err
		}
	}
	return nil
}

// SetProbeLoss injects random probe-packet loss: each scheduled sweep
// is eaten whole with probability p (its observations never reach the
// archive). 0 disables the fault and restores the exact pre-fault
// random stream.
func (s *System) SetProbeLoss(p float64) error {
	if p < 0 || p >= 1 || math.IsNaN(p) {
		return fmt.Errorf("core: probe loss %v out of [0,1)", p)
	}
	s.probeLoss = p
	return nil
}

// SuppressProbes pauses (or resumes) every node's probe publication —
// the evidence-staleness fault: virtual time keeps advancing, so
// archived probes age past the §3.4 admissibility window Δ.
func (s *System) SuppressProbes(suppressed bool) { s.probesSuppressed = suppressed }

// SetNodeSilent marks one node's probe sweeps as silent (a
// tomography-tree leaf that stopped reporting) without removing it from
// the overlay.
func (s *System) SetNodeSilent(nid id.ID, silent bool) error {
	if _, ok := s.Nodes[nid]; !ok {
		return fmt.Errorf("core: unknown node %s", nid.Short())
	}
	if s.silent == nil {
		s.silent = make(map[id.ID]bool)
	}
	s.silent[nid] = silent
	return nil
}

func (s *System) scheduleProbe(node *Node) error {
	// One sweep closure per node, created on first schedule: a probe loop
	// fires tens of thousands of times over a long run, and allocating a
	// fresh closure per sweep was a measurable share of steady-state heap
	// churn.
	if node.sweep == nil {
		node.sweep = func() { s.probeSweep(node) }
	}
	delay := time.Duration(s.rng.Float64() * float64(s.Config.MaxProbeTime))
	return s.Sim.ScheduleAfter(delay, node.sweep)
}

// probeSweep runs one lightweight probe sweep for node and reschedules
// the next.
func (s *System) probeSweep(node *Node) {
	if _, ok := s.Nodes[node.ID()]; !ok {
		// The node departed after this sweep was scheduled: a ghost
		// must not keep publishing probes, and its loop ends here.
		s.Counters.GhostProbesStopped++
		return
	}
	if s.probesSuppressed || s.silent[node.ID()] {
		s.Counters.ProbesSuppressed++
		s.reschedProbe(node)
		return
	}
	if s.probeLoss > 0 && s.rng.Float64() < s.probeLoss {
		s.Counters.ProbesLost++
		s.reschedProbe(node)
		return
	}
	// The archive copies observations out record by record, so the
	// unsigned path reuses one scratch slice across every sweep in the
	// system. Signed snapshots retain obs, so that path keeps a fresh
	// allocation.
	var obs []tomography.LinkObservation
	var err error
	if s.Config.SignedSnapshots {
		obs, err = tomography.ObserveLinks(s.Net, node.Tree.Links(), s.Config.Blame.ProbeAccuracy, s.rng)
	} else {
		obs, err = tomography.AppendObserveLinks(s.obsScratch[:0], s.Net, node.Tree.Links(), s.Config.Blame.ProbeAccuracy, s.rng)
		if err == nil {
			s.obsScratch = obs
		}
	}
	if err == nil {
		s.met.probeSweeps.Inc()
		s.met.probeBytes.Add(uint64(len(obs) * wiresize.ProbePacket))
		for i := range node.Tree.Leaves {
			// Round trip to each leaf in virtual time: the sim-time
			// probe-RTT distribution of this sweep.
			s.met.probeRTT.ObserveDuration(2 * s.Net.Latency(node.Tree.Leaves[i].Path))
		}
		if s.Config.SignedSnapshots {
			s.publishSnapshot(node, obs)
		} else if err := s.Archive.Record(node.ID(), s.Sim.Now(), obs); err != nil {
			s.Counters.ArchiveRecordErrors++
		}
		s.emit(trace.Event{At: s.Sim.Now(), Kind: trace.KindProbe, Node: node.ID()})
	}
	if s.Config.ArchiveRetention > 0 {
		now := s.Sim.Now()
		if now.Sub(s.lastPrune) >= s.Config.ArchiveRetention/4 {
			s.lastPrune = now
			s.Archive.Prune(now.Add(-s.Config.ArchiveRetention))
		}
	}
	s.reschedProbe(node)
}

// reschedProbe queues the node's next sweep, surfacing (instead of
// swallowing) scheduling failures.
func (s *System) reschedProbe(node *Node) {
	if err := s.scheduleProbe(node); err != nil {
		s.Counters.ProbeRescheduleErrors++
	}
}

// publishSnapshot runs the full §3.2 dissemination path: the prober
// signs its snapshot and receivers validate the signature before
// archiving. Snapshots that fail validation never enter the archive.
func (s *System) publishSnapshot(node *Node, obs []tomography.LinkObservation) {
	spacing, err := node.Routing.Leaf.MeanSpacing()
	if err != nil {
		spacing = 0
	}
	snap := &Snapshot{
		Prober:       node.ID(),
		At:           s.Sim.Now(),
		Observations: obs,
		LeafSpacing:  spacing,
	}
	snap.Sign(node.Keys)
	s.met.snapshotBytes.Add(uint64(wiresize.SnapshotBytes(len(obs))))
	validator := &SnapshotValidator{Keys: s.Keys()}
	if err := validator.Ingest(s.Archive, snap); err != nil {
		s.emit(trace.Event{
			At: s.Sim.Now(), Kind: trace.KindSnapshotRejected,
			Node: node.ID(), Detail: err.Error(),
		})
	}
}

// emit records a trace event when tracing is enabled.
func (s *System) emit(e trace.Event) {
	if s.Config.Tracer != nil {
		s.Config.Tracer.Record(e)
	}
}

// Run advances the simulation by d of virtual time.
func (s *System) Run(d time.Duration) { s.Sim.RunFor(d) }
