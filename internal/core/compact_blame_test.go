package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"concilium/internal/fuzzy"
	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/overlay"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// The compact collusion filter reads both identities as slabs, a
// handle being its node's slab plus one, instead of going through the
// ring. Its contract is that nothing observable changed:
// ringCollusionFilter, the filter as it stood when both identities went
// through Overlay.IndexOf per record, is the oracle, and slabNames, the
// test's own record of which identifier each slab was issued to, names
// the probers it resolves.

// slabNames is the oracles' Probers: the identifier of every slab ever
// issued, noted by the test at build and on each join.
type slabNames struct {
	ids  []id.ID // by slab
	slab map[id.ID]uint32
}

// newSlabNames notes a freshly built system's slabs, which are its
// members in build order.
func newSlabNames(cs *CompactSystem) *slabNames {
	n := &slabNames{slab: make(map[id.ID]uint32)}
	for _, nid := range cs.AliveIDs() {
		n.join(nid)
	}
	return n
}

// join notes the next slab issued, to nid.
func (n *slabNames) join(nid id.ID) {
	n.slab[nid] = uint32(len(n.ids))
	n.ids = append(n.ids, nid)
}

func (n *slabNames) ProberHandle(nid id.ID) tomography.ProberHandle {
	if p, ok := n.slab[nid]; ok {
		return tomography.ProberHandle(p + 1)
	}
	return 0
}

func (n *slabNames) ProberID(h tomography.ProberHandle) id.ID {
	if h == 0 || int(h) > len(n.ids) {
		return id.ID{}
	}
	return n.ids[h-1]
}

// ringCollusionFilter is the IndexOf-based compact collusion filter.
func ringCollusionFilter(cs *CompactSystem, names *slabNames) RecordFilter {
	return func(judged id.ID, _ tomography.ProberHandle, rec tomography.ProbeRecord) (tomography.ProbeRecord, bool) {
		pi, ok := cs.Overlay.IndexOf(names.ProberID(rec.Prober()))
		if !ok {
			return rec, true
		}
		prober := cs.behaviorOfSlab(cs.Overlay.Slab(pi))
		if !prober.InvertsProbes {
			return rec, true
		}
		ally := false
		if ji, ok := cs.Overlay.IndexOf(judged); ok {
			jb := cs.behaviorOfSlab(cs.Overlay.Slab(ji))
			if c := prober.Clique; c != 0 {
				ally = jb.Clique == c
			} else {
				ally = jb.DropsMessages
			}
		}
		return rec.WithUp(!ally), true
	}
}

// randomBehavior draws a policy from the packed-bit and extended
// families alike: inverting cliques, non-inverting clique members (whom
// a clique's liars cover), plain and probabilistic droppers, honesty.
func randomBehavior(pick *rand.Rand) Behavior {
	switch pick.IntN(5) {
	case 0:
		return Behavior{}
	case 1:
		return Behavior{DropsMessages: pick.IntN(2) == 0, InvertsProbes: true}
	case 2:
		return Behavior{InvertsProbes: true, DropsMessages: pick.IntN(2) == 0, Clique: 1 + pick.IntN(3)}
	case 3:
		return Behavior{DropsMessages: pick.IntN(2) == 0, Clique: 1 + pick.IntN(3)}
	default:
		return Behavior{InvertsProbes: pick.IntN(2) == 0, DropProb: 0.25, DropPeriod: pick.IntN(3)}
	}
}

// judgedCandidates lists every identifier a judgment could name: the
// live members, the departed ones, and strangers who never held a slab.
func judgedCandidates(cs *CompactSystem, strangers []id.ID) []id.ID {
	var departed []id.ID
	for nid := range cs.departedSlab {
		departed = append(departed, nid)
	}
	slices.SortFunc(departed, id.Cmp)
	return append(append(cs.AliveIDs(), departed...), strangers...)
}

// requireFilterMatchesRing checks the filter against the oracle for
// every judged candidate and every archived record, then Engine.Blame
// over hop spans against an engine wired to the oracle.
func requireFilterMatchesRing(t *testing.T, cs *CompactSystem, oracle *BlameEngine, names *slabNames, strangers []id.ID, step int) {
	t.Helper()
	ring := ringCollusionFilter(cs, names)
	now := cs.Sim.Now()
	var recs []tomography.ProbeRecord
	for l := 0; l < cs.Topo.NumLinks(); l++ {
		recs = append(recs, cs.Archive.Window(topology.LinkID(l), 0, now)...)
	}
	// The oracle's binary searches would dominate the run, so its answer
	// is memoised per (prober, bit) — all it reads of a record — while
	// the filter under test sees every record.
	memo := make(map[tomography.ProbeRecord]bool)
	judged := judgedCandidates(cs, strangers)
	for _, j := range judged {
		jh := names.ProberHandle(j)
		if got := cs.ProberHandle(j); got != jh {
			t.Fatalf("step %d: ProberHandle(%s) = %d, slab names give %d", step, j.Short(), got, jh)
		}
		clear(memo)
		for _, rec := range recs {
			got, keep := cs.collusionFilter(j, jh, rec)
			key := tomography.NewProbeRecord(0, rec.Prober(), rec.Up())
			up, ok := memo[key]
			if !ok {
				if got, want := cs.ProberID(rec.Prober()), names.ProberID(rec.Prober()); got != want {
					t.Fatalf("step %d: ProberID(%d) = %s, slab names give %s", step, rec.Prober(), got.Short(), want.Short())
				}
				want, _ := ring(j, 0, rec)
				up = want.Up()
				memo[key] = up
			}
			if want := rec.WithUp(up); !keep || got != want {
				t.Fatalf("step %d: judging %s, record %+v by %s: filter gives %+v/%v, ring oracle %+v",
					step, j.Short(), rec, names.ProberID(rec.Prober()).Short(), got, keep, want)
			}
		}
	}

	// Hop spans as SendMessage builds them: a steward's path to its peer
	// followed by that peer's onward path.
	at := now.Add(-cs.Config.Blame.Delta / 2)
	judge := func(j id.ID, span []topology.LinkID) {
		got, gotErr := cs.Engine.Blame(j, span, at)
		want, wantErr := oracle.Blame(j, span, at)
		if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("step %d: Blame(%s) over %d links differs from the ring oracle:\n got %+v\nwant %+v",
				step, j.Short(), len(span), got, want)
		}
	}
	var span []topology.LinkID
	for p := 0; p < cs.Overlay.Slabs(); p++ {
		i := cs.Overlay.Pos(uint32(p))
		if i == overlay.NoIndex {
			continue
		}
		tree, err := cs.treeOfSlab(uint32(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(tree.Leaves) > 1 {
			span = append(append(span[:0], tree.Leaves[0].Path...), tree.Leaves[1].Path...)
			judge(tree.Leaves[0].Node, span)
		}
	}
	for _, j := range judged[cs.Size():] {
		judge(j, span)
	}
}

// TestCollusionFilterMatchesRingOracle runs randomized op sequences —
// behaviour changes (packed, extended, clique), departures, joins, and
// records a foreign Archive.Record caller writes under handles no slab
// will ever reach, with probing time in between — over seeds from the
// test's own generator at N≈48 and N≈256, and checks the slab-handle
// filter against the ring oracle, and the system's ProberHandle and
// ProberID against the test's slab names, after every step.
func TestCollusionFilterMatchesRingOracle(t *testing.T) {
	t.Parallel()
	seeds := rand.New(rand.NewPCG(0x68616e646c65, 0x736c6162))
	for run := 0; run < 8; run++ {
		seed, medium := seeds.Uint64(), run%2 == 1
		steps := 12
		if medium {
			steps = 5
		}
		t.Run(fmt.Sprintf("seed-%016x", seed), func(t *testing.T) {
			t.Parallel()
			cfg := equivSystemConfig(medium)
			cfg.MaliciousFraction = 0.25
			cfg.ArchiveRetention = time.Minute
			cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)))
			if err != nil {
				t.Fatal(err)
			}
			names := newSlabNames(cs)
			oracle, err := NewBlameEngine(cs.Archive, names, cfg.Blame, WithRecordFilter(ringCollusionFilter(cs, names)))
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.StartProbing(); err != nil {
				t.Fatal(err)
			}
			cs.Run(2 * time.Minute)
			pick := rand.New(rand.NewPCG(seed, 5))
			hosts := cs.Topo.EndHosts()
			var strangers []id.ID
			for step := 0; step < steps; step++ {
				alive := cs.AliveIDs()
				op := pick.IntN(4)
				if step == 0 {
					op = 1 // an inverting departure, so departed liars' records are archived
				}
				switch op {
				case 0:
					for k := 1 + pick.IntN(3); k > 0; k-- {
						if err := cs.SetBehavior(alive[pick.IntN(len(alive))], randomBehavior(pick)); err != nil {
							t.Fatal(err)
						}
					}
				case 1:
					victim := alive[pick.IntN(len(alive))]
					if step == 0 {
						for _, nid := range alive {
							if i, _ := cs.Overlay.IndexOf(nid); cs.Behavior(i).InvertsProbes {
								victim = nid
								break
							}
						}
					}
					if cs.Size() > 16 {
						if err := cs.FailNode(victim); err != nil {
							t.Fatal(err)
						}
					}
				case 2:
					nid, err := cs.JoinNode(hosts[pick.IntN(len(hosts))])
					if err != nil {
						t.Fatal(err)
					}
					names.join(nid)
				case 3:
					stranger := id.Random(pick)
					strangers = append(strangers, stranger)
					obs := make([]tomography.LinkObservation, 1+pick.IntN(8))
					for k := range obs {
						obs[k] = tomography.LinkObservation{
							Link: topology.LinkID(pick.IntN(cs.Topo.NumLinks())), Up: pick.IntN(2) == 0,
						}
					}
					foreign := tomography.ProberHandle(1<<31 - len(strangers))
					if err := cs.Archive.Record(foreign, cs.Sim.Now(), obs); err != nil {
						t.Fatal(err)
					}
				}
				// Less than one MaxProbeTime: a joiner may not have recorded yet.
				cs.Run(time.Duration(1+pick.IntN(30)) * time.Second)
				requireFilterMatchesRing(t, cs, oracle, names, strangers, step)
			}
		})
	}
}

// blameTriple is one recorded judgment: who, over which span, when.
type blameTriple struct {
	judged id.ID
	span   []topology.LinkID
	at     netsim.Time
}

// probedCompactSystem builds a ~256-node compact system with a 20%
// inverting, dropping minority and five simulated minutes of probing,
// and records hop-span judgments over its first live slabs' trees.
func probedCompactSystem(t testing.TB) (*CompactSystem, []blameTriple) {
	t.Helper()
	cfg := equivSystemConfig(true)
	cfg.MaliciousFraction = 0.2
	cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(42, 43)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(5 * time.Minute)
	at := cs.Sim.Now().Add(-cs.Config.Blame.Delta)
	var triples []blameTriple
	for p := 0; p < cs.Overlay.Slabs(); p++ {
		i := cs.Overlay.Pos(uint32(p))
		if i == overlay.NoIndex || len(triples) >= 64 {
			continue
		}
		tree, err := cs.treeOfSlab(uint32(p))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k+1 < len(tree.Leaves) && k < 2; k++ {
			span := append(append([]topology.LinkID{}, tree.Leaves[k].Path...), tree.Leaves[k+1].Path...)
			triples = append(triples, blameTriple{tree.Leaves[k].Node, span, at})
		}
	}
	return cs, triples
}

// TestCompactBlameConcurrentReadOnly holds DESIGN.md §9's promise that
// Engine.Blame may run concurrently: four goroutines replaying the same
// judgments must agree with the serial results, and under -race any
// write Blame or the collusion filter made to shared state would be
// fatal.
func TestCompactBlameConcurrentReadOnly(t *testing.T) {
	t.Parallel()
	cs, triples := probedCompactSystem(t)
	serial := make([]BlameResult, len(triples))
	for k, tr := range triples {
		res, err := cs.Engine.Blame(tr.judged, tr.span, tr.at)
		if err != nil {
			t.Fatal(err)
		}
		serial[k] = res
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := range triples {
				k := (n + w*len(triples)/4) % len(triples)
				tr := triples[k]
				res, err := cs.Engine.Blame(tr.judged, tr.span, tr.at)
				if err != nil || !reflect.DeepEqual(res, serial[k]) {
					t.Errorf("worker %d: Blame(%s) = %+v, %v; serial %+v", w, tr.judged.Short(), res, err, serial[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCompactBlameAllocatesOnlyEvidence locks the compact judgment's
// allocation count with inverting probers in every window: the Evidence
// slice, and nothing per record or per link.
func TestCompactBlameAllocatesOnlyEvidence(t *testing.T) {
	cs, triples := probedCompactSystem(t)
	inverted := 0
	for _, tr := range triples[:8] {
		for _, l := range tr.span {
			for _, rec := range cs.Archive.Window(l, tr.at.Add(-cs.Config.Blame.Delta), tr.at.Add(cs.Config.Blame.Delta)) {
				if s, ok := cs.liveSlab(rec.Prober()); ok && cs.behaviorBits[s]&2 != 0 {
					inverted++
				}
			}
		}
	}
	if inverted == 0 {
		t.Fatal("no inverting prober's record in any judged window; the lock would not exercise the filter")
	}
	n := testing.AllocsPerRun(50, func() {
		for _, tr := range triples[:8] {
			if _, err := cs.Engine.Blame(tr.judged, tr.span, tr.at); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perCall := n / 8; perCall != 1 {
		t.Errorf("compact Blame allocates %.2f/call, want exactly 1 (the Evidence slice)", perCall)
	}
}

// parentGroupedConfidence is the clique-discounted link confidence as it
// stood when every record resolved its witness group through its
// prober's identifier and a per-link map: the oracle for the call-local
// group numbering, down to the floating-point summation order. names
// resolves the probers.
func parentGroupedConfidence(e *BlameEngine, names Probers, judged id.ID, link topology.LinkID, at netsim.Time) LinkConfidence {
	self := names.ProberHandle(judged)
	recs := e.archive.Window(link, at.Add(-e.cfg.Delta), at.Add(e.cfg.Delta))
	lc := LinkConfidence{Link: link}
	a := e.cfg.ProbeAccuracy
	jg := e.group(judged)
	type acc struct {
		sum float64
		n   int
	}
	var accs []acc
	idx := make(map[id.ID]int)
	for _, r := range recs {
		if r.Prober() == self {
			continue
		}
		g := e.group(names.ProberID(r.Prober()))
		if g == jg {
			continue
		}
		if e.filter != nil {
			var keep bool
			if r, keep = e.filter(judged, self, r); !keep {
				continue
			}
		}
		lc.Probes++
		v := a
		if r.Up() {
			v = 1 - a
		}
		j, ok := idx[g]
		if !ok {
			j = len(accs)
			idx[g] = j
			accs = append(accs, acc{})
		}
		accs[j].sum += v
		accs[j].n++
	}
	if lc.Probes == 0 {
		return lc
	}
	var sum float64
	for _, c := range accs {
		sum += c.sum / float64(c.n)
	}
	lc.Confidence = fuzzy.Clamp(sum / float64(len(accs)))
	return lc
}

// TestGroupedBlameMatchesPerRecordGrouping installs suspected cliques
// (liars merged with each other and with honest nodes, so groups mix)
// and checks every link confidence of every judgment bit for bit
// against the per-record grouping.
func TestGroupedBlameMatchesPerRecordGrouping(t *testing.T) {
	t.Parallel()
	cs, triples := probedCompactSystem(t)
	sus := NewCliqueSuspector()
	alive := cs.AliveIDs()
	pick := rand.New(rand.NewPCG(11, 13))
	for k := 0; k < len(alive)/4; k++ {
		sus.Suspect(alive[pick.IntN(len(alive)/5)], alive[pick.IntN(len(alive))])
	}
	names := newSlabNames(cs)
	cs.Engine.SetWitnessGrouping(sus.Group)
	defer cs.Engine.SetWitnessGrouping(nil)
	for _, tr := range triples {
		res, err := cs.Engine.Blame(tr.judged, tr.span, tr.at)
		if err != nil {
			t.Fatal(err)
		}
		for k, l := range tr.span {
			want := parentGroupedConfidence(cs.Engine, names, tr.judged, l, tr.at)
			if got := res.Evidence[k]; got != want {
				t.Fatalf("Blame(%s) link %d: grouped confidence %+v, per-record grouping %+v", tr.judged.Short(), l, got, want)
			}
		}
	}
}

// BenchmarkCompactBlame times Engine.Blame on a probed N≈1k compact
// system with a 20% inverting minority — the diagnose-n1k judgment —
// over a fixed set of hop spans, and reports the archived records each
// call consulted.
func BenchmarkCompactBlame(b *testing.B) {
	cfg := benchScaleConfig(1000)
	cfg.MaliciousFraction = 0.2
	cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(20070625, 13)))
	if err != nil {
		b.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		b.Fatal(err)
	}
	cs.Run(5 * time.Minute)
	at := cs.Sim.Now().Add(-cfg.Blame.Delta)
	var triples []blameTriple
	for p := 0; p < cs.Overlay.Slabs() && len(triples) < 128; p += 7 {
		if cs.Overlay.Pos(uint32(p)) == overlay.NoIndex {
			continue
		}
		tree, err := cs.treeOfSlab(uint32(p))
		if err != nil {
			b.Fatal(err)
		}
		if len(tree.Leaves) < 2 {
			continue
		}
		span := append(append([]topology.LinkID{}, tree.Leaves[0].Path...), tree.Leaves[1].Path...)
		triples = append(triples, blameTriple{tree.Leaves[0].Node, span, at})
	}
	records := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := triples[i%len(triples)]
		res, err := cs.Engine.Blame(tr.judged, tr.span, tr.at)
		if err != nil {
			b.Fatal(err)
		}
		records += res.TotalProbes
	}
	b.ReportMetric(float64(records)/float64(b.N), "records/op")
}
