package core

import (
	"crypto/ed25519"
	"fmt"
	"math"
	"time"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/overlay"
	"concilium/internal/tomography"
	"concilium/internal/topology"
	"concilium/internal/trace"
	"concilium/internal/wire"
)

// The traffic plane (DESIGN.md §9): the full diagnosis protocol —
// randomized probing, stewarded delivery, per-hop blame, recursive
// revision — running over CompactSystem's index-based state: uint32
// ring/slab indices in place of map lookups, lazily cached tomography
// trees, and slab-keyed verdict windows whose keys survive churn without
// liveness checks. SendMessage is the one delivery path: route capture
// (captureRoute), the forward pass (forward) and the per-hop judgment
// (judge). The golden digests in compact_traffic_test.go pin its outputs
// draw for draw.

// Run advances the simulation by d of virtual time.
func (cs *CompactSystem) Run(d time.Duration) { cs.Sim.RunFor(d) }

// emit records a trace event when tracing is enabled.
func (cs *CompactSystem) emit(e trace.Event) {
	if cs.Config.Tracer != nil {
		cs.Config.Tracer.Record(e)
	}
}

// KeyDir returns the system's one key directory, for accusation-chain
// verification. It reads the key slab, whose rows outlive
// departures, so it answers for every identifier the system ever
// admitted: a chain whose signer has since departed still verifies. A
// lookup derives the signer's public key on its first read (keysOfSlab)
// and so writes the slab: the directory, like the rest of the traffic
// plane, is used from one goroutine (DESIGN.md §9).
func (cs *CompactSystem) KeyDir() KeyDirectory {
	return func(x id.ID) (ed25519.PublicKey, bool) {
		p, ok := cs.slabOf(x)
		if !ok {
			return nil, false
		}
		return cs.keysOfSlab(p).Public, true
	}
}

// collusionFilter is the §4.3 adaptive adversary over slab state:
// colluding probers flip their published results at judgment time —
// links up when a target is judged (framing it), links down when an
// ally is (excusing it as a network fault). Allies are fellow clique
// members when the prober belongs to a clique, and any fellow dropper
// otherwise; only current members count on either side. A handle is
// its node's slab plus one, so both the prober and the judged node
// resolve without the ring, and an honest prober's record costs a
// presence test and a bit test.
func (cs *CompactSystem) collusionFilter(judged id.ID, judgedHandle tomography.ProberHandle, rec tomography.ProbeRecord) (tomography.ProbeRecord, bool) {
	ps, ok := cs.liveSlab(rec.Prober())
	if !ok || cs.behaviorBits[ps]&2 == 0 {
		return rec, true
	}
	prober := cs.behaviorOfSlab(ps)
	ally := false
	if js, ok := cs.liveSlab(judgedHandle); ok {
		jb := cs.behaviorOfSlab(js)
		if c := prober.Clique; c != 0 {
			ally = jb.Clique == c
		} else {
			ally = jb.DropsMessages
		}
	}
	return rec.WithUp(!ally), true
}

// liveSlab returns the slab behind archive handle h, if h names one and
// its node is a current member.
func (cs *CompactSystem) liveSlab(h tomography.ProberHandle) (uint32, bool) {
	p := uint32(h) - 1
	return p, int(p) < cs.Overlay.Slabs() && cs.Overlay.Pos(p) != overlay.NoIndex
}

// slabOf returns the slab nid holds or, if it departed, held.
func (cs *CompactSystem) slabOf(nid id.ID) (uint32, bool) {
	if i, ok := cs.Overlay.IndexOf(nid); ok {
		return cs.Overlay.Slab(i), true
	}
	p, ok := cs.departedSlab[nid]
	return p, ok
}

// ProberHandle returns the archive handle of nid's probe records, its
// slab plus one, or zero for an identifier that never held a slab.
func (cs *CompactSystem) ProberHandle(nid id.ID) tomography.ProberHandle {
	if p, ok := cs.slabOf(nid); ok {
		return tomography.ProberHandle(p + 1)
	}
	return 0
}

// ProberID returns the identifier behind archive handle h: the member
// or departed node that holds slab h − 1, or the zero identifier when
// no such slab was issued.
func (cs *CompactSystem) ProberID(h tomography.ProberHandle) id.ID {
	if p, ok := cs.liveSlab(h); ok {
		return cs.Overlay.ID(cs.Overlay.Pos(p))
	}
	return cs.departedID[uint32(h)-1]
}

// PathToPeer returns the IP link path from node i to one of its routing
// peers, from node i's (lazily materialized) tomography tree. The path
// is shared tree storage — read-only to callers.
func (cs *CompactSystem) PathToPeer(i uint32, peer id.ID) ([]topology.LinkID, error) {
	tree, err := cs.treeOfSlab(cs.Overlay.Slab(i))
	if err != nil {
		return nil, err
	}
	path, ok := tree.PathTo(peer)
	if !ok {
		return nil, fmt.Errorf("core: %s has no path to peer %s", cs.Overlay.ID(i).Short(), peer.Short())
	}
	return path, nil
}

// capture is one send's route. ids escape into the report; slabs
// (churn-stable hop keys: ring indices shift when membership changes
// mid-flight, slabs never do) and paths (each leg's IP links, shared
// tree storage) alias the route scratch arenas until the next send.
type capture struct {
	ids   []id.ID
	slabs []uint32
	paths [][]topology.LinkID
}

// captureRoute validates src and dst and resolves the secure route
// between them, with every leg's IP path. Tree lookups draw no
// randomness, so resolving the paths up front moves no draw.
func (cs *CompactSystem) captureRoute(src, dst id.ID) (capture, error) {
	si, ok := cs.Overlay.IndexOf(src)
	if !ok {
		return capture{}, fmt.Errorf("core: unknown source %s", src.Short())
	}
	if _, ok := cs.Overlay.IndexOf(dst); !ok {
		return capture{}, fmt.Errorf("core: unknown destination %s", dst.Short())
	}
	idxBuf, err := cs.Overlay.AppendRouteSecure(si, dst, 0, cs.routeIdxScratch[:0])
	if err != nil {
		return capture{}, err
	}
	cs.routeIdxScratch = idxBuf
	c := capture{ids: make([]id.ID, len(idxBuf)), slabs: cs.routeSlabScratch[:0], paths: cs.pathScratch[:0]}
	for h, i := range idxBuf {
		c.ids[h] = cs.Overlay.ID(i)
		c.slabs = append(c.slabs, cs.Overlay.Slab(i))
	}
	cs.routeSlabScratch = c.slabs
	for h := 0; h+1 < len(idxBuf); h++ {
		p, err := cs.PathToPeer(idxBuf[h], c.ids[h+1])
		if err != nil {
			return capture{}, err
		}
		c.paths = append(c.paths, p)
	}
	cs.pathScratch = c.paths
	return c, nil
}

// span appends to dst the IP links steward i's judgment of its next hop
// covers: the steward's own path to the next hop plus the next hop's
// onward path. A probed-down link anywhere in it exonerates the next hop.
func (c capture) span(dst []topology.LinkID, i int) []topology.LinkID {
	dst = append(dst, c.paths[i]...)
	if i+1 < len(c.paths) {
		dst = append(dst, c.paths[i+1]...)
	}
	return dst
}

// forward runs one message's forward pass and finds where it dies. Each
// leg advances the virtual clock by its propagation delay, so link state
// is whatever the failure process says when the packet actually crosses.
// It returns the leg the message died on (len(c.paths) when it arrived),
// how it died, and the down link for DropByLink; DropByNode and
// DropByChurn name the hop at the leg's far end.
func (cs *CompactSystem) forward(c capture) (leg int, kind DropKind, broken topology.LinkID) {
	for i, path := range c.paths {
		cs.met.msgBytes.Add(wire.StewardedHopBytes)
		cs.Run(cs.Net.Latency(path))
		if bad, down := cs.Net.FirstDownLink(path); down {
			return i, DropByLink, bad
		}
		if cs.Overlay.Pos(c.slabs[i+1]) == overlay.NoIndex {
			// The next hop departed while the message was in flight
			// (churn events fire inside the latency advance above):
			// nobody received it.
			cs.Counters.ChurnDrops++
			return i, DropByChurn, 0
		}
		if i+1 < len(c.paths) && cs.dropsMessageSlab(c.slabs[i+1]) {
			return i, DropByNode, 0
		}
	}
	return len(c.paths), DropNone, 0
}

// judge has steward i judge its next hop at time at over the hop's span,
// records the verdict in the next hop's window, and traces it.
func (cs *CompactSystem) judge(c capture, i int, at netsim.Time) (Verdict, error) {
	cs.spanScratch = c.span(cs.spanScratch[:0], i)
	res, err := cs.timedBlame(c.ids[i+1], cs.spanScratch, at)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Judged: c.ids[i+1], At: at, Blame: res.Blame, Guilty: res.Guilty}
	cs.Window.Add(c.slabs[i+1], v)
	cs.emit(trace.Event{
		At: at, Kind: trace.KindVerdict,
		Node: c.ids[i], Peer: c.ids[i+1], Guilty: res.Guilty,
	})
	return v, nil
}

// SendMessage routes one stewarded message from src to dst over the
// secure overlay and runs the full diagnostic protocol (§3.4–§3.5):
// forwarding commitments at every hop, recursive stewardship, per-hop
// blame when the acknowledgment fails to arrive, and recursive revision
// that pushes blame to the true fault point.
//
// Each steward judges its next hop over the IP links that the message
// needed after leaving the steward (capture.span). The warm delivered
// path allocates only the report and its route copy; everything else
// lives in system scratch (DESIGN.md §9 ownership protocol) or the
// per-slab caches.
func (cs *CompactSystem) SendMessage(src, dst id.ID) (*DeliveryReport, error) {
	c, err := cs.captureRoute(src, dst)
	if err != nil {
		return nil, err
	}
	cs.msgSeq[c.slabs[0]]++
	rep := &DeliveryReport{MsgID: cs.msgSeq[c.slabs[0]], Route: c.ids, Kind: DropNone}
	cs.met.msgsSent.Inc()
	cs.emit(trace.Event{At: cs.Sim.Now(), Kind: trace.KindMessageSent, Node: src, Peer: dst})
	if len(c.paths) == 0 {
		rep.Delivered, rep.AckReceived = true, true
		cs.met.msgsDelivered.Inc()
		return rep, nil
	}
	sendTime := cs.Sim.Now()

	leg, kind, broken := cs.forward(c)
	rep.Kind, rep.BrokenLink = kind, broken
	if kind == DropByNode || kind == DropByChurn {
		rep.DroppedBy = c.ids[leg+1]
	}
	rep.Delivered = kind == DropNone

	// Acknowledgment pass over the reverse path, again in real virtual
	// time: a link can fail between the message leg and the ack leg
	// (§3.5's "acknowledgment dropped along the reverse path").
	if rep.Delivered {
		rep.AckReceived = true
		for i := len(c.paths) - 1; i >= 0; i-- {
			cs.met.ackBytes.Add(wire.AckHopBytes)
			cs.Run(cs.Net.Latency(c.paths[i]))
			if bad, down := cs.Net.FirstDownLink(c.paths[i]); down {
				rep.Kind = DropAckByLink
				rep.BrokenLink = bad
				rep.AckReceived = false
				break
			}
		}
		if rep.AckReceived {
			cs.met.msgsDelivered.Inc()
			return rep, nil
		}
	}
	cs.emit(trace.Event{
		At: cs.Sim.Now(), Kind: trace.KindMessageDropped,
		Node: src, Peer: dst, Link: rep.BrokenLink, Detail: dropDetail(rep.Kind),
	})
	// Evidence windows center on the send time (§3.4).
	now := sendTime

	// Diagnosis: every steward that saw the message judges its next hop.
	rep.Verdicts = make([]Verdict, 0, leg+1)
	for i := 0; i <= leg && i < len(c.paths); i++ {
		v, err := cs.judge(c, i, now)
		if err != nil {
			return nil, err
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}

	// Recursive revision (§3.5): the deepest steward's verdict stands.
	deepest := rep.Verdicts[len(rep.Verdicts)-1]
	if !deepest.Guilty {
		rep.NetworkBlamed = true
		return rep, nil
	}
	rep.Culprit = deepest.Judged

	// Assemble the amended accusation from the deepest contiguous run of
	// guilty verdicts whose participants are all still members. Slab keys
	// make the presence check one array load. keysOfSlab could sign for
	// a departed participant, but a departed node is gone and signs
	// nothing, so the chain is truncated instead.
	start := len(rep.Verdicts) - 1
	for start > 0 && rep.Verdicts[start-1].Guilty {
		start--
	}
	for vi := start; vi < len(rep.Verdicts); vi++ {
		haveAccuser := cs.Overlay.Pos(c.slabs[vi]) != overlay.NoIndex
		haveJudged := cs.Overlay.Pos(c.slabs[vi+1]) != overlay.NoIndex
		if !haveAccuser || !haveJudged {
			start = vi + 1
			rep.ChainUnavailable = true
		}
	}
	if rep.ChainUnavailable {
		cs.Counters.ChainsUnavailable++
	}
	if start >= len(rep.Verdicts) {
		return rep, nil
	}
	links := make([]Accusation, 0, len(rep.Verdicts)-start)
	for vi := start; vi < len(rep.Verdicts); vi++ {
		accuser := c.ids[vi]
		judged := rep.Verdicts[vi].Judged
		// Accusation spans escape into the signed chain: exact-size
		// copies, never scratch.
		cs.spanScratch = c.span(cs.spanScratch[:0], vi)
		span := append(make([]topology.LinkID, 0, len(cs.spanScratch)), cs.spanScratch...)
		res, err := cs.timedBlame(judged, span, now)
		if err != nil {
			return nil, err
		}
		commit := NewCommitment(cs.keysOfSlab(c.slabs[vi+1]), accuser, judged, dst, rep.MsgID, now)
		acc, err := NewAccusation(cs.keysOfSlab(c.slabs[vi]), accuser, res, rep.MsgID, span, commit)
		if err != nil {
			return nil, err
		}
		links = append(links, acc)
	}
	chain, err := NewRevisionChain(links)
	if err != nil {
		return nil, err
	}
	rep.Chain = chain
	cs.met.chainLen.Observe(int64(len(chain.Links)))
	cs.emit(trace.Event{At: now, Kind: trace.KindAccusation, Node: src, Peer: rep.Culprit})
	return rep, nil
}

// dropsMessageSlab evaluates slab p's drop policy for one stewarded
// message. The packed-bits fast path covers honest nodes and plain
// droppers with zero map traffic and zero rng draws. The extended path
// consumes the shared rng only when the probabilistic knob is set, so a
// system without adversaries draws exactly the same random stream as
// before the policy existed (the chaos-hook convention).
func (cs *CompactSystem) dropsMessageSlab(p uint32) bool {
	bits := cs.behaviorBits[p]
	if bits&4 == 0 {
		return bits&1 != 0
	}
	b := cs.extBehavior[p]
	if b.DropsMessages {
		return true
	}
	if b.DropPeriod > 0 {
		cs.fwdSeq[p]++
		if cs.fwdSeq[p]%uint64(b.DropPeriod) == 0 {
			return true
		}
	}
	return b.DropProb > 0 && cs.rng.Float64() < b.DropProb
}

// timedBlame wraps the blame engine with metrics: call count, probes
// consulted (deterministic), and wall-clock latency (the reserved
// "_wallns" class, excluded from canonical snapshots).
func (cs *CompactSystem) timedBlame(judged id.ID, span []topology.LinkID, at netsim.Time) (BlameResult, error) {
	start := time.Now()
	res, err := cs.Engine.Blame(judged, span, at)
	cs.met.blameWall.ObserveDuration(time.Since(start))
	if err == nil {
		cs.met.blameCalls.Inc()
		cs.met.blameProbes.Observe(int64(res.TotalProbes))
	}
	return res, err
}

// OverlayPaths returns every (host → routing peer) IP path — the
// candidate set for the failure injector and the denominators for the
// coverage experiment. It materializes every node's tomography tree,
// which is exactly what lazy trees avoid at large N; scale experiments
// prefer chaos-style targeted faults, and the small-N figure loops
// accept the cost.
func (cs *CompactSystem) OverlayPaths() ([][]topology.LinkID, error) {
	var out [][]topology.LinkID
	for p := 0; p < cs.Overlay.Slabs(); p++ {
		if cs.Overlay.Pos(uint32(p)) == overlay.NoIndex {
			continue
		}
		tree, err := cs.treeOfSlab(uint32(p))
		if err != nil {
			return nil, err
		}
		for i := range tree.Leaves {
			out = append(out, tree.Leaves[i].Path)
		}
	}
	return out, nil
}

// StartFailures begins the link-failure process over the overlay paths.
func (cs *CompactSystem) StartFailures() error {
	paths, err := cs.OverlayPaths()
	if err != nil {
		return err
	}
	inj, err := netsim.NewFailureInjector(cs.Net, cs.rng, paths, cs.Config.Failures)
	if err != nil {
		return err
	}
	cs.Injector = inj
	return inj.Start()
}

// StartProbing schedules every node's randomized lightweight probing
// loop in slab (build) order, drawing each node's initial delay from the
// shared rng. Each node observes its tree's links (with the configured
// probe accuracy) and publishes the results into the shared archive,
// modeling snapshot dissemination (§3.2). Colluders' records are stored
// truthfully and flipped at judgment time by the collusion filter,
// matching the paper's adaptive adversary.
func (cs *CompactSystem) StartProbing() error {
	if cs.probing {
		return fmt.Errorf("core: probing already started")
	}
	cs.probing = true
	for p := 0; p < cs.Overlay.Slabs(); p++ {
		if cs.Overlay.Pos(uint32(p)) == overlay.NoIndex {
			continue
		}
		if err := cs.scheduleProbe(uint32(p)); err != nil {
			return err
		}
	}
	return nil
}

// StartProbingSample schedules probe loops for an evenly strided sample
// of about k current members instead of all of them — the
// large-N traffic figure's probing mode, where full-population probing
// would dominate the run without changing what the hot path measures.
// The stride covers the whole slab range (malicious marks cluster at
// low slabs, so a prefix would be adversarially skewed) and the chosen
// members are returned for use as traffic endpoints. It draws a
// different random stream from StartProbing, so a run that samples is
// not comparable draw for draw with one that probes everyone.
func (cs *CompactSystem) StartProbingSample(k int) ([]id.ID, error) {
	if cs.probing {
		return nil, fmt.Errorf("core: probing already started")
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: probe sample %d must be positive", k)
	}
	cs.probing = true
	alive := make([]uint32, 0, cs.Size())
	for p := 0; p < cs.Overlay.Slabs(); p++ {
		if cs.Overlay.Pos(uint32(p)) != overlay.NoIndex {
			alive = append(alive, uint32(p))
		}
	}
	step := len(alive) / k
	if step < 1 {
		step = 1
	}
	chosen := make([]id.ID, 0, k)
	for at := 0; at < len(alive) && len(chosen) < k; at += step {
		p := alive[at]
		if err := cs.scheduleProbe(p); err != nil {
			return nil, err
		}
		chosen = append(chosen, cs.Overlay.ID(cs.Overlay.Pos(p)))
	}
	return chosen, nil
}

// SetProbeLoss injects random probe-packet loss: each scheduled sweep
// is eaten whole with probability p. 0 disables the fault and restores
// the exact pre-fault random stream.
func (cs *CompactSystem) SetProbeLoss(p float64) error {
	if p < 0 || p >= 1 || math.IsNaN(p) {
		return fmt.Errorf("core: probe loss %v out of [0,1)", p)
	}
	cs.probeLoss = p
	return nil
}

// SuppressProbes pauses (or resumes) every node's probe publication —
// the evidence-staleness fault.
func (cs *CompactSystem) SuppressProbes(suppressed bool) { cs.probesSuppressed = suppressed }

// SetNodeSilent marks one node's probe sweeps as silent without
// removing it from the overlay.
func (cs *CompactSystem) SetNodeSilent(nid id.ID, silent bool) error {
	i, ok := cs.Overlay.IndexOf(nid)
	if !ok {
		return fmt.Errorf("core: unknown node %s", nid.Short())
	}
	if cs.silentSlabs == nil {
		cs.silentSlabs = make(map[uint32]bool)
	}
	cs.silentSlabs[cs.Overlay.Slab(i)] = silent
	return nil
}

// scheduleProbe queues slab p's next sweep. The sweep closure is
// created once per slab and reused for every rescheduling.
func (cs *CompactSystem) scheduleProbe(p uint32) error {
	if cs.sweeps[p] == nil {
		cs.sweeps[p] = func() { cs.probeSweep(p) }
	}
	delay := time.Duration(cs.rng.Float64() * float64(cs.Config.MaxProbeTime))
	return cs.Sim.ScheduleAfter(delay, cs.sweeps[p])
}

// probeSweep runs one lightweight probe sweep for slab p and
// reschedules the next.
func (cs *CompactSystem) probeSweep(p uint32) {
	if cs.Overlay.Pos(p) == overlay.NoIndex {
		// The node departed after this sweep was scheduled: a ghost must
		// not keep publishing probes, and its loop ends here.
		cs.Counters.GhostProbesStopped++
		return
	}
	if cs.probesSuppressed || cs.silentSlabs[p] {
		cs.Counters.ProbesSuppressed++
		cs.reschedProbe(p)
		return
	}
	if cs.probeLoss > 0 && cs.rng.Float64() < cs.probeLoss {
		cs.Counters.ProbesLost++
		cs.reschedProbe(p)
		return
	}
	tree, err := cs.treeOfSlab(p)
	if err != nil {
		// The graph is immutable and BFS roots are attachment routers, so
		// this cannot fire in practice; surface it rather than panic.
		cs.Counters.ArchiveRecordErrors++
		cs.reschedProbe(p)
		return
	}
	// The archive copies observations out record by record, so every
	// sweep reuses one scratch slice.
	obs, err := tomography.AppendObserveLinks(cs.obsScratch[:0], cs.Net, tree.Links(), cs.Config.Blame.ProbeAccuracy, cs.rng)
	if err == nil {
		cs.obsScratch = obs
		cs.met.probeSweeps.Inc()
		cs.met.probeBytes.Add(uint64(len(obs) * wire.ProbePacketBytes))
		for _, c := range cs.rtts[p] {
			cs.met.probeRTT.ObserveN(int64(c.rtt), c.leaves)
		}
		if cs.Config.SignedSnapshots {
			cs.publishSnapshot(p, obs)
		} else if err := cs.Archive.Record(tomography.ProberHandle(p+1), cs.Sim.Now(), obs); err != nil {
			cs.Counters.ArchiveRecordErrors++
		}
		cs.emit(trace.Event{At: cs.Sim.Now(), Kind: trace.KindProbe, Node: cs.Overlay.ID(cs.Overlay.Pos(p))})
	}
	if cs.Config.ArchiveRetention > 0 {
		now := cs.Sim.Now()
		if now.Sub(cs.lastPrune) >= cs.Config.ArchiveRetention/4 {
			cs.lastPrune = now
			cs.Archive.Prune(now.Add(-cs.Config.ArchiveRetention))
		}
	}
	cs.reschedProbe(p)
}

// reschedProbe queues slab p's next sweep, surfacing scheduling
// failures.
func (cs *CompactSystem) reschedProbe(p uint32) {
	if err := cs.scheduleProbe(p); err != nil {
		cs.Counters.ProbeRescheduleErrors++
	}
}

// publishSnapshot runs the §3.2 dissemination path for slab p: the
// prober signs its sweep's snapshot and receivers admit it
// (admitSnapshot) before archiving.
func (cs *CompactSystem) publishSnapshot(p uint32, obs []tomography.LinkObservation) {
	i := cs.Overlay.Pos(p)
	snap := &Snapshot{
		Prober:       cs.Overlay.ID(i),
		At:           cs.Sim.Now(),
		Observations: obs,
	}
	snap.Sign(cs.keysOfSlab(p))
	cs.met.snapshotBytes.Add(uint64(wire.SnapshotBytes(len(obs))))
	if err := cs.admitSnapshot(snap); err != nil {
		cs.emit(trace.Event{
			At: cs.Sim.Now(), Kind: trace.KindSnapshotRejected,
			Node: cs.Overlay.ID(i), Detail: err.Error(),
		})
	}
}

// admitSnapshot archives a snapshot that verifies under a current
// member's key, whole, under that member's slab handle; any other
// snapshot, or one the archive refuses, archives nothing. A departed
// prober's key still resolves, but its snapshot is refused as an
// unknown signer's: it adds no new evidence.
func (cs *CompactSystem) admitSnapshot(snap *Snapshot) error {
	i, ok := cs.Overlay.IndexOf(snap.Prober)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSigner, snap.Prober.Short())
	}
	p := cs.Overlay.Slab(i)
	if err := snap.VerifySignature(cs.keysOfSlab(p).Public); err != nil {
		return err
	}
	return cs.Archive.Record(tomography.ProberHandle(p+1), snap.At, snap.Observations)
}
