package core

import (
	"crypto/ed25519"
	"fmt"
	"math"
	"time"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/overlay"
	"concilium/internal/parexec"
	"concilium/internal/sigcrypto"
	"concilium/internal/stats"
	"concilium/internal/tomography"
	"concilium/internal/topology"
	"concilium/internal/trace"
)

// CompactSystem is a complete simulated deployment: IP topology,
// event-driven network with failure injection, a secure overlay with
// per-node Concilium state, and a shared probe archive modeling snapshot
// dissemination across the forest (DESIGN.md §9). State is stored flat,
// not pointer-per-node. Nodes are uint32 positions in the sorted ring;
// keys live in one shared byte slab, 64 B per node: Go's Ed25519
// private key is seed ‖ public key, so the public key is a view of its
// second half and is stored nowhere else. Tomography trees, being a pure
// deterministic function of the immutable graph and each node's routing
// peers, are built lazily and cached per slab. A slab is a node's index
// in build order, joiners appended; the overlay owns the ring↔slab
// mapping (Overlay.Slab, Overlay.Pos), and every slab-indexed array
// here follows it. Departures keep their slab rows — churn at compact
// scale leaks 69 B of identity and behavior per departure, which is the
// right trade against compacting the slabs per event. A slab also names
// its node's probe records (archive handle = slab + 1), and the system
// is the blame engine's Probers. The diagnosis protocol — probing,
// SendMessage, blame, verdict windows, revision — runs over these
// indices; see compact_traffic.go.
type CompactSystem struct {
	Config  SystemConfig
	Topo    *topology.Graph
	Sim     *netsim.Simulator
	Net     *netsim.Network
	CA      *sigcrypto.Authority
	Overlay *overlay.Compact
	Archive *tomography.Archive
	Engine  *BlameEngine
	Window  *CompactVerdictWindow

	Injector *netsim.FailureInjector
	// Counters surfaces errors and degradations that would otherwise be
	// swallowed on hot paths, for the chaos invariant report.
	Counters SystemCounters

	routers      []topology.RouterID // by slab position
	privKeys     []byte              // ed25519.PrivateKeySize per slab row: seed ‖ public key
	behaviorBits []byte              // bit0 DropsMessages, bit1 InvertsProbes, bit2 extended
	// extBehavior holds the full Behavior policy for slabs whose bit2 is
	// set — probabilistic/periodic droppers and clique members, the
	// adversary-campaign knobs that do not pack into two bits. Honest
	// and plain-dropper nodes never touch the map.
	extBehavior map[uint32]Behavior

	// Per-slab protocol state, all lazily sized by the build and
	// appended on join.
	msgSeq []uint64
	fwdSeq []uint64
	// trees caches lazily materialized tomography trees; treeStale marks
	// the cached ones a churn event has outdated. T_H is a function of
	// H's attachment router (fixed for a slab's lifetime) and H's
	// routing-peer sequence, so a tree goes stale exactly when the
	// overlay reports that sequence changed (Compact.ApplyDeparture /
	// ApplyJoin) — a few dozen slabs per event. Ring positions shifting
	// under a tree do not outdate it: trees name peers by identifier and
	// router, never by position. A stale tree stays in place until its
	// next consult, when treeOfSlab patches it; what the cache returns
	// always equals a fresh TreeOf. A departed slab's entry is dropped.
	// rtts holds each cached tree's RTT census, rewritten in place
	// whenever the tree is: a slab allocates one only when its census
	// outgrows the last.
	trees     []*tomography.Tree
	treeStale []bool
	rtts      [][]rttCount
	sweeps    []func()
	// departedSlab remembers the slab of every departed identifier so
	// verdict-window queries and blame's self-exclusion still key by
	// slab after churn; departedID is its inverse, naming the prober of
	// a departed slab's archive records. The CA never reissues an
	// identifier, so a departed one never rejoins and neither entry
	// goes stale. Both grow by one entry per departure.
	departedSlab map[id.ID]uint32
	departedID   map[uint32]id.ID

	rng       stats.Rand
	met       systemMetrics
	probing   bool
	lastPrune netsim.Time

	// Scratch arenas (DESIGN.md §9 ownership protocol): all protocol
	// code runs in simulator callbacks on one goroutine; anything built
	// here that escapes into a report or the archive is copied out
	// exact-size first.
	treeScratch      tomography.PatchScratch
	changedScratch   []uint32
	obsScratch       []tomography.LinkObservation
	peerScratch      []uint32
	leafScratch      []tomography.Leaf
	rttScratch       []rttCount
	routeIdxScratch  []uint32
	routeSlabScratch []uint32
	pathScratch      [][]topology.LinkID
	spanScratch      []topology.LinkID

	// Chaos-injection hooks, default-off (the unperturbed system draws
	// the same random stream as before they existed).
	probeLoss        float64
	probesSuppressed bool
	silentSlabs      map[uint32]bool
}

// BuildCompactSystem constructs the deployment deterministically from
// cfg and rng: topology, identities and routing tables. No events are
// scheduled yet; call StartProbing and StartFailures, then drive cs.Sim.
//
// Construction is parallel but scheduling-independent. The contract
// (DESIGN.md §10):
//
//   - The shared rng is consumed only by the serial prefix — topology,
//     host permutation, four discarded draws — and by a single SeedFrom
//     call that derives the build's substream family. Node p then draws
//     exclusively from its own substreams: Stream(2p) for keygen and
//     identifier assignment, Stream(2p+1) for routing-table fills.
//   - Phase 1 (keygen, then the identifier draw) writes slab rows
//     addressed by p; the authority's claim of each identifier is
//     serial in build order, including the (vanishingly rare)
//     collision redraws, which come from the colliding node's own
//     substream.
//   - Phase 2 (routing fills) runs against the completed ring; each
//     node writes only its own table rows.
//
// The result is byte-identical for every Workers value, including 1.
func BuildCompactSystem(cfg SystemConfig, rng stats.Rand) (*CompactSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	graph, err := topology.Generate(cfg.Topology, rng)
	if err != nil {
		return nil, err
	}
	// The simulator and network draw nothing from rng at construction
	// (netsim consumes randomness only when sampling packets), so wiring
	// them here leaves the canonical build stream untouched.
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
	net, err := netsim.NewNetwork(graph, sim, netOpts...)
	if err != nil {
		return nil, err
	}

	hosts := graph.EndHosts()
	nOverlay := int(cfg.OverlayFraction * float64(len(hosts)))
	if nOverlay < 4 {
		return nil, fmt.Errorf("core: only %d overlay nodes from %d hosts; increase scale", nOverlay, len(hosts))
	}
	perm := make([]int, len(hosts))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	// The retired CA keypair's four draws: the build stream bench/expected.json pins.
	for range ed25519.SeedSize / 8 {
		rng.Uint64()
	}
	ca := sigcrypto.NewAuthority(rng)
	buildSeed := parexec.SeedFrom(rng)

	// Phase 1: keygen and identifier draws into flat slabs, fanned out.
	// Slot p writes only its own slab rows, so workers never contend.
	n := nOverlay
	ids := make([]id.ID, n)
	cs := &CompactSystem{
		Config:       cfg,
		Topo:         graph,
		Sim:          sim,
		Net:          net,
		CA:           ca,
		Archive:      tomography.NewArchive(graph.NumLinks()),
		routers:      make([]topology.RouterID, n),
		privKeys:     make([]byte, n*ed25519.PrivateKeySize),
		behaviorBits: make([]byte, n),
		msgSeq:       make([]uint64, n),
		fwdSeq:       make([]uint64, n),
		trees:        make([]*tomography.Tree, n),
		treeStale:    make([]bool, n),
		rtts:         make([][]rttCount, n),
		sweeps:       make([]func(), n),
		rng:          rng,
		met:          newSystemMetrics(cfg.Metrics),
	}
	cs.Archive.SetMetrics(cfg.Metrics)
	err = parexec.ForEachWorker(cfg.Workers, n, "compact-keygen", func(_, p int) error {
		stream := buildSeed.Stream(2 * uint64(p))
		keys := sigcrypto.KeyPairFromRand(stream)
		ids[p] = id.Random(stream)
		cs.routers[p] = hosts[perm[p]]
		copy(cs.privKeys[p*ed25519.PrivateKeySize:], keys.Private)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Serial claim in build order. Collision redraws (~2^-128 per pair)
	// come from the colliding node's own substream, re-derived and
	// advanced past the six keygen/identifier draws phase 1 consumed.
	const phase1Draws = ed25519.SeedSize/8 + id.Bytes/8
	for p := 0; p < n; p++ {
		var stream stats.Rand
		for ca.Claim(ids[p]) != nil {
			if stream == nil {
				s := buildSeed.Stream(2 * uint64(p))
				for skip := 0; skip < phase1Draws; skip++ {
					s.Uint64()
				}
				stream = s
			}
			ids[p] = id.Random(stream)
		}
	}

	// Built in slab order: node p owns overlay slab p.
	cs.Overlay, err = overlay.NewCompact(ids, overlay.DefaultLeafSetPerSide)
	if err != nil {
		return nil, err
	}

	// Malicious marks follow build order: the first nBad nodes built.
	nBad := int(cfg.MaliciousFraction * float64(n))
	for p := 0; p < nBad; p++ {
		cs.behaviorBits[p] = 3 // drops + inverts
	}

	// Phase 2: routing fills, fanned out. Node p's standard-table draws
	// come from Stream(2p+1), consumed secure table first (no draws),
	// then standard; each node writes only its own table rows.
	err = parexec.ForEachWorker(cfg.Workers, n, "compact-routing", func(_, p int) error {
		cs.Overlay.FillNode(cs.Overlay.Pos(uint32(p)), buildSeed.Stream(2*uint64(p)+1))
		return nil
	})
	if err != nil {
		return nil, err
	}

	cs.Engine, err = NewBlameEngine(cs.Archive, cs, cfg.Blame, WithRecordFilter(cs.collusionFilter))
	if err != nil {
		return nil, err
	}
	cs.Window, err = NewCompactVerdictWindow(cfg.Window)
	if err != nil {
		return nil, err
	}
	return cs, nil
}

// Size returns the current overlay population.
func (cs *CompactSystem) Size() int { return cs.Overlay.Size() }

// NodeID returns the identifier at ring position i.
func (cs *CompactSystem) NodeID(i uint32) id.ID { return cs.Overlay.ID(i) }

// Router returns node i's attachment router.
func (cs *CompactSystem) Router(i uint32) topology.RouterID {
	return cs.routers[cs.Overlay.Slab(i)]
}

// Keys returns node i's key pair as views into the shared slabs; the
// returned slices must not be modified.
func (cs *CompactSystem) Keys(i uint32) sigcrypto.KeyPair {
	return cs.keysOfSlab(cs.Overlay.Slab(i))
}

// keysOfSlab returns slab row p's key pair: the row is the private
// key, and the public key is its second half. Slab rows outlive
// departures, so diagnosis code that captured a slab before a churn
// event can still sign with it, and KeyDir still answers for it.
func (cs *CompactSystem) keysOfSlab(p uint32) sigcrypto.KeyPair {
	lo, hi := int(p)*ed25519.PrivateKeySize, int(p+1)*ed25519.PrivateKeySize
	priv := cs.privKeys[lo:hi:hi]
	return sigcrypto.KeyPair{Public: ed25519.PublicKey(priv[ed25519.SeedSize:]), Private: ed25519.PrivateKey(priv)}
}

// BuildAdvert assembles node i's signed routing advertisement entries:
// each routing peer, in probe-set order, with a freshness timestamp
// signed by that peer. In a deployment the timestamps arrive
// piggybacked on availability-probe responses; the simulation holds
// every key, so it signs them directly.
func (cs *CompactSystem) BuildAdvert(i uint32, at int64) []AdvertEntry {
	peers := cs.Overlay.AppendRoutingPeers(i, nil)
	entries := make([]AdvertEntry, 0, len(peers))
	for _, j := range peers {
		p := cs.Overlay.ID(j)
		entries = append(entries, AdvertEntry{
			Peer:      p,
			Freshness: sigcrypto.NewTimestamp(cs.Keys(j), p, at),
		})
	}
	return entries
}

// Behavior returns node i's (mis)behavior marks.
func (cs *CompactSystem) Behavior(i uint32) Behavior {
	return cs.behaviorOfSlab(cs.Overlay.Slab(i))
}

// behaviorOfSlab decodes slab p's policy: the two packed bits on the
// fast path, the extended map only when bit2 marks an entry.
func (cs *CompactSystem) behaviorOfSlab(p uint32) Behavior {
	bits := cs.behaviorBits[p]
	if bits&4 != 0 {
		return cs.extBehavior[p]
	}
	return Behavior{DropsMessages: bits&1 != 0, InvertsProbes: bits&2 != 0}
}

// SetBehavior installs a node's (mis)behavior policy at runtime — the
// adversary campaign's hook for marking attackers after construction.
// Policies expressible in the packed bits stay there; probabilistic,
// periodic, and clique policies spill into the extended map.
func (cs *CompactSystem) SetBehavior(nid id.ID, b Behavior) error {
	i, ok := cs.Overlay.IndexOf(nid)
	if !ok {
		return fmt.Errorf("core: unknown node %s", nid.Short())
	}
	if b.DropProb < 0 || b.DropProb >= 1 || math.IsNaN(b.DropProb) {
		return fmt.Errorf("core: drop probability %v out of [0,1)", b.DropProb)
	}
	if b.DropPeriod < 0 {
		return fmt.Errorf("core: drop period %d negative", b.DropPeriod)
	}
	p := cs.Overlay.Slab(i)
	if b.DropProb == 0 && b.DropPeriod == 0 && b.Clique == 0 {
		var bits byte
		if b.DropsMessages {
			bits |= 1
		}
		if b.InvertsProbes {
			bits |= 2
		}
		cs.behaviorBits[p] = bits
		delete(cs.extBehavior, p)
		return nil
	}
	if cs.extBehavior == nil {
		cs.extBehavior = make(map[uint32]Behavior)
	}
	var bits byte = 4
	if b.DropsMessages {
		bits |= 1
	}
	if b.InvertsProbes {
		bits |= 2
	}
	cs.behaviorBits[p] = bits
	cs.extBehavior[p] = b
	return nil
}

// TreeOf materializes node i's tomography tree: one BFS from its
// attachment router, which searches only the graph's 2-core
// (topology.RouteTree), plus path extraction per routing peer. Trees
// are derived data — the build stores none, which is what removes the
// O(N·routers) phase from the scale frontier; callers that sweep many
// nodes should reuse scratch across calls. The traffic plane's
// treeOfSlab caches the result per slab instead.
func (cs *CompactSystem) TreeOf(i uint32, scratch *topology.BFSScratch) (*tomography.Tree, error) {
	if scratch == nil {
		scratch = new(topology.BFSScratch)
	}
	peers := cs.Overlay.AppendRoutingPeers(i, nil)
	leaves := make([]tomography.Leaf, 0, len(peers))
	for _, j := range peers {
		leaves = append(leaves, tomography.Leaf{Node: cs.Overlay.ID(j), Router: cs.Router(j)})
	}
	bfs, err := cs.Topo.BFSInto(scratch, cs.Router(i))
	if err != nil {
		return nil, err
	}
	return tomography.BuildTreeBFS(bfs, cs.NodeID(i), cs.Router(i), leaves)
}

// Tree returns node i's tomography tree from the per-slab cache,
// building or patching it first when it is missing or stale — the tree
// the node's own probing and routing use. It is shared storage,
// read-only to callers; a churn event never mutates it in place.
func (cs *CompactSystem) Tree(i uint32) (*tomography.Tree, error) {
	return cs.treeOfSlab(cs.Overlay.Slab(i))
}

// treeOfSlab returns slab p's tomography tree from the cache,
// (re)building it when it is stale or was never built. There is one
// build path: tomography.PatchTree keeps the path of every routing peer
// the old tree already reached and searches the graph only until the
// rest are found; a never-built tree is the patch of nothing. The
// replacement is freshly allocated, so paths handed out from the old
// tree — a SendMessage in flight across the churn event, the failure
// injector's candidate set — stay intact.
func (cs *CompactSystem) treeOfSlab(p uint32) (*tomography.Tree, error) {
	old := cs.trees[p]
	if old != nil && !cs.treeStale[p] {
		return old, nil
	}
	i := cs.Overlay.Pos(p)
	if i == overlay.NoIndex {
		return nil, fmt.Errorf("core: tree of departed node (slab %d)", p)
	}
	cs.peerScratch = cs.Overlay.AppendRoutingPeers(i, cs.peerScratch[:0])
	cs.leafScratch = cs.leafScratch[:0]
	for _, j := range cs.peerScratch {
		cs.leafScratch = append(cs.leafScratch, tomography.Leaf{
			Node: cs.Overlay.ID(j), Router: cs.routers[cs.Overlay.Slab(j)],
		})
	}
	tree, err := tomography.PatchTree(cs.Topo, &cs.treeScratch, old, cs.Overlay.ID(i), cs.routers[p], cs.leafScratch)
	if err != nil {
		return nil, fmt.Errorf("core: build tree for %s: %w", cs.Overlay.ID(i).Short(), err)
	}
	cs.trees[p], cs.treeStale[p] = tree, false
	cs.rttScratch = appendRTTCensus(cs.rttScratch[:0], cs.Net, tree)
	cs.rtts[p] = append(cs.rtts[p][:0], cs.rttScratch...)
	return tree, nil
}

// rttCount is one entry of a tree's RTT census: how many of its leaves
// a probe reaches and returns from in rtt.
type rttCount struct {
	rtt    time.Duration
	leaves uint64
}

// appendRTTCensus appends tree's RTT census to dst: for each distinct
// round trip 2·Net.Latency(path) over its leaves, the number of leaves
// at it, in first-seen order. Trees hold a few distinct path lengths,
// so the scan is short.
func appendRTTCensus(dst []rttCount, net *netsim.Network, tree *tomography.Tree) []rttCount {
	for i := range tree.Leaves {
		rtt := 2 * net.Latency(tree.Leaves[i].Path)
		k := 0
		for k < len(dst) && dst[k].rtt != rtt {
			k++
		}
		if k == len(dst) {
			dst = append(dst, rttCount{rtt: rtt})
		}
		dst[k].leaves++
	}
	return dst
}

// markTreesStale outdates the cached trees of the members at the given
// ring positions — the ones a churn event reports as having a changed
// routing-peer sequence. Slabs with nothing cached have nothing to mark.
func (cs *CompactSystem) markTreesStale(ringPositions []uint32) {
	for _, i := range ringPositions {
		if p := cs.Overlay.Slab(i); cs.trees[p] != nil {
			cs.treeStale[p] = true
		}
	}
}

// FailNode removes a node — a crash or permanent departure: the overlay
// repairs every survivor in ring order through the index-based
// maintenance ops, and the node's ring position is spliced out. Its
// slab row is retained (see CompactSystem); Overlay.Pos marks it
// departed.
func (cs *CompactSystem) FailNode(failed id.ID) error {
	k, ok := cs.Overlay.IndexOf(failed)
	if !ok {
		return fmt.Errorf("core: unknown node %s", failed.Short())
	}
	if cs.Size() <= 4 {
		return fmt.Errorf("core: refusing to shrink overlay below 4 nodes")
	}
	slab := cs.Overlay.Slab(k)
	changed, err := cs.Overlay.ApplyDeparture(failed, cs.rng, cs.changedScratch[:0])
	if err != nil {
		return err
	}
	cs.changedScratch = changed
	if cs.departedSlab == nil {
		cs.departedSlab = make(map[id.ID]uint32)
		cs.departedID = make(map[uint32]id.ID)
	}
	cs.departedSlab[failed] = slab
	cs.departedID[slab] = failed
	cs.trees[slab], cs.rtts[slab] = nil, nil
	cs.markTreesStale(changed)
	return nil
}

// JoinNode admits a new node at the given router: fresh keys, then an
// identifier the authority issues, both from the shared rng; slab rows
// appended, every existing node patched in ring order, the newcomer's
// tables filled from scratch, and — when probing is live — its probe
// loop scheduled.
func (cs *CompactSystem) JoinNode(router topology.RouterID) (id.ID, error) {
	keys := sigcrypto.KeyPairFromRand(cs.rng)
	return cs.admit(cs.CA.Issue(), keys, router)
}

// JoinNodeAt admits a node with a caller-chosen identifier — the
// eclipse threat model, where an adversary has defeated the CA's random
// assignment (§2) and positions identifiers adjacent to a victim. The
// adversary campaign uses it to measure whether the density checks
// notice. Keys are drawn first, then the identifier is claimed; a
// taken identifier fails before anything changes.
func (cs *CompactSystem) JoinNodeAt(router topology.RouterID, nid id.ID) (id.ID, error) {
	keys := sigcrypto.KeyPairFromRand(cs.rng)
	if err := cs.CA.Claim(nid); err != nil {
		return id.ID{}, err
	}
	return cs.admit(nid, keys, router)
}

// admit folds a node with a freshly issued identifier into the overlay
// and the slabs.
func (cs *CompactSystem) admit(nid id.ID, keys sigcrypto.KeyPair, router topology.RouterID) (id.ID, error) {
	k, changed, err := cs.Overlay.ApplyJoin(nid, cs.rng, cs.changedScratch[:0])
	if err != nil {
		return id.ID{}, err
	}
	cs.changedScratch = changed
	slab := cs.Overlay.Slab(k)
	cs.routers = append(cs.routers, router)
	cs.privKeys = append(cs.privKeys, keys.Private...)
	cs.behaviorBits = append(cs.behaviorBits, 0)
	cs.msgSeq = append(cs.msgSeq, 0)
	cs.fwdSeq = append(cs.fwdSeq, 0)
	cs.trees = append(cs.trees, nil)
	cs.treeStale = append(cs.treeStale, false)
	cs.rtts = append(cs.rtts, nil)
	cs.sweeps = append(cs.sweeps, nil)
	cs.markTreesStale(changed)
	if cs.probing {
		if err := cs.scheduleProbe(slab); err != nil {
			return id.ID{}, err
		}
	}
	return nid, nil
}

// AliveIDs returns the current membership in build order: alive slabs
// ascending, which is the build's node order with departures spliced
// out and joiners appended. Drivers pick traffic endpoints from it. It
// allocates O(slabs) per call, so callers hoist it and refresh it only
// after a churn event.
func (cs *CompactSystem) AliveIDs() []id.ID {
	out := make([]id.ID, 0, cs.Size())
	for p := 0; p < cs.Overlay.Slabs(); p++ {
		if r := cs.Overlay.Pos(uint32(p)); r != overlay.NoIndex {
			out = append(out, cs.Overlay.ID(r))
		}
	}
	return out
}

// CheckInvariants checks the overlay's rules (overlay.Compact's
// CheckInvariants) and the system's own bookkeeping around it: every
// per-slab array has one row per slab ever issued, a departed slab
// caches no tree, the departure record (departedSlab and departedID)
// holds exactly the slabs Overlay.Pos says departed, each under the
// identifier it held, and every archived record's handle names an
// issued slab. Like the overlay check it costs O(N²), plus one pass
// over the archive; it is meant for tests and soaks.
func (cs *CompactSystem) CheckInvariants() error {
	if err := cs.Overlay.CheckInvariants(); err != nil {
		return err
	}
	slabs := cs.Overlay.Slabs()
	for _, a := range []struct {
		name string
		rows int
	}{
		{"routers", len(cs.routers)},
		{"privKeys", len(cs.privKeys) / ed25519.PrivateKeySize},
		{"behaviorBits", len(cs.behaviorBits)},
		{"msgSeq", len(cs.msgSeq)},
		{"fwdSeq", len(cs.fwdSeq)},
		{"trees", len(cs.trees)},
		{"treeStale", len(cs.treeStale)},
		{"rtts", len(cs.rtts)},
		{"sweeps", len(cs.sweeps)},
	} {
		if a.rows != slabs {
			return fmt.Errorf("core: %s has %d rows for %d slabs", a.name, a.rows, slabs)
		}
	}
	departed := 0
	for p := 0; p < slabs; p++ {
		if cs.Overlay.Pos(uint32(p)) == overlay.NoIndex {
			departed++
			if cs.trees[p] != nil {
				return fmt.Errorf("core: departed slab %d still caches a tree", p)
			}
		}
	}
	for nid, p := range cs.departedSlab {
		if int(p) >= slabs || cs.Overlay.Pos(p) != overlay.NoIndex || cs.departedID[p] != nid {
			return fmt.Errorf("core: departedSlab names %s at live, unissued or differently held slab %d", nid.Short(), p)
		}
	}
	if len(cs.departedSlab) != departed || len(cs.departedID) != departed {
		return fmt.Errorf("core: departure record holds %d identifiers and %d slabs for %d departed slabs",
			len(cs.departedSlab), len(cs.departedID), departed)
	}
	for l := 0; l < cs.Topo.NumLinks(); l++ {
		for _, rec := range cs.Archive.Window(topology.LinkID(l), math.MinInt64, math.MaxInt64) {
			if int(rec.Prober()) > slabs {
				return fmt.Errorf("core: link %d holds a record by handle %d; %d slabs issued", l, rec.Prober(), slabs)
			}
		}
	}
	return nil
}

// Footprint returns the resident bytes of the compact core: overlay
// state (the ring↔slab mapping included), identity slabs, the traffic
// plane's per-slab state (tree cache and sweep-closure headers
// included; cached tree contents and their RTT censuses are derived
// data and excluded), and departedID, departedIDBytes per departure.
// The topology and the CA registry are excluded too: both are fixed by
// the configuration, not by the overlay's representation.
func (cs *CompactSystem) Footprint() int64 {
	const departedIDBytes = 40 // slab, identifier and map overhead: 28–45 B measured (Go 1.24, amd64)
	total := cs.Overlay.Footprint()
	total += int64(len(cs.routers)) * 4
	total += int64(len(cs.departedID)) * departedIDBytes
	total += int64(len(cs.behaviorBits))
	total += int64(len(cs.privKeys))
	total += int64(len(cs.msgSeq)+len(cs.fwdSeq)) * 8
	total += int64(len(cs.trees)+len(cs.sweeps))*8 + int64(len(cs.treeStale))
	return total
}
