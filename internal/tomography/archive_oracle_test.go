package tomography

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"concilium/internal/metrics"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// mapArchive is the archive as a map of growing per-link slices, pruned
// by a binary search and an in-place shift per link: the reference the
// dense archive must match operation for operation.
type mapArchive struct {
	byLink map[topology.LinkID][]ProbeRecord
	size   int

	records *metrics.Counter
	pruned  *metrics.Counter
	sizeG   *metrics.Gauge
}

func newMapArchive(reg *metrics.Registry) *mapArchive {
	return &mapArchive{
		byLink:  make(map[topology.LinkID][]ProbeRecord),
		records: reg.Counter("tomography/archive_records"),
		pruned:  reg.Counter("tomography/archive_pruned"),
		sizeG:   reg.Gauge("tomography/archive_size"),
	}
}

func (a *mapArchive) record(h ProberHandle, at netsim.Time, obs []LinkObservation) error {
	for _, o := range obs {
		if recs := a.byLink[o.Link]; len(recs) > 0 && recs[len(recs)-1].At() > at {
			return fmt.Errorf("out-of-order record for link %d", o.Link)
		}
	}
	for _, o := range obs {
		a.byLink[o.Link] = append(a.byLink[o.Link], NewProbeRecord(at, h, o.Up))
		a.size++
	}
	a.records.Add(uint64(len(obs)))
	a.sizeG.Set(int64(a.size))
	return nil
}

func (a *mapArchive) window(link topology.LinkID, from, to netsim.Time) []ProbeRecord {
	recs := a.byLink[link]
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].At() >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].At() > to })
	return recs[lo:hi]
}

func (a *mapArchive) prune(before netsim.Time) {
	var dropped int
	for link, recs := range a.byLink {
		cut := sort.Search(len(recs), func(i int) bool { return recs[i].At() >= before })
		if cut == 0 {
			continue
		}
		dropped += cut
		if cut == len(recs) {
			delete(a.byLink, link)
			continue
		}
		n := copy(recs, recs[cut:])
		a.byLink[link] = recs[:n]
	}
	if dropped > 0 {
		a.size -= dropped
		a.pruned.Add(uint64(dropped))
		a.sizeG.Set(int64(a.size))
	}
}

// TestArchiveMatchesMapOracle drives the dense archive and the map
// archive through the same randomized operations — sweeps over skewed
// link sets with repeated and equal timestamps, records that go out of
// order partway through a call, records below the prune horizon on
// emptied links, prunes forward and backward, and a mid-run move of the
// probed link set that leaves whole size classes free — and requires
// identical windows (prober handles included), sizes, errors and
// metrics after every step. A call that goes out of order partway
// through archives nothing in either.
func TestArchiveMatchesMapOracle(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			checkAgainstOracle(t, seed)
		})
	}
}

func checkAgainstOracle(t *testing.T, seed uint64) {
	r := rand.New(rand.NewPCG(seed, 0xa2c4))
	const hot, first, links = 6, 106, 406
	regD, regM := metrics.NewRegistry(), metrics.NewRegistry()
	dense, oracle := NewArchive(links), newMapArchive(regM)
	dense.SetMetrics(regD)
	probers := []ProberHandle{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 1 << 16, maxHandle}
	var now netsim.Time
	var seen []netsim.Time // record times, for window bounds that hit them exactly
	compacted := false
	link := func(step int) topology.LinkID {
		// Half the traffic lands on a few hot links that climb every size
		// class. The rest spreads over 100 links, then over 300 others:
		// their links then hold a third as much, so the larger classes
		// the first set used fall mostly free.
		switch {
		case r.IntN(2) == 0:
			return topology.LinkID(r.IntN(hot))
		case step < 2500:
			return topology.LinkID(hot + r.IntN(first-hot))
		default:
			return topology.LinkID(first + r.IntN(links-first))
		}
	}
	for step := 0; step < 6000; step++ {
		switch op := r.IntN(20); {
		case op < 14: // a sweep
			if r.IntN(3) != 0 {
				now += netsim.Time(r.IntN(4)) // 0 repeats the last time
			}
			at := now
			if r.IntN(25) == 0 {
				at -= netsim.Time(r.IntN(400)) // out of order on busy links
			}
			obs := make([]LinkObservation, 1+r.IntN(96))
			for i := range obs {
				obs[i] = LinkObservation{Link: link(step), Up: r.IntN(3) != 0}
			}
			p := probers[r.IntN(len(probers))]
			errD, errM := dense.Record(p, at, obs), oracle.record(p, at, obs)
			if (errD == nil) != (errM == nil) {
				t.Fatalf("step %d: Record error %v, oracle %v", step, errD, errM)
			}
			seen = append(seen, at)
		case op < 16: // a prune, usually behind the clock, sometimes back
			before := now - 2000 - netsim.Time(r.IntN(300))
			if r.IntN(8) == 0 {
				before -= netsim.Time(r.IntN(2000))
			}
			dense.Prune(before)
			oracle.prune(before)
			compacted = compacted || dense.spare >= 0
		default: // windows at random bounds, some exactly on record times
			for k := 0; k < 8; k++ {
				l := link(step)
				if k%2 == 0 {
					l = topology.LinkID(r.IntN(links))
				}
				from, to := now-netsim.Time(r.IntN(2600)), now-netsim.Time(r.IntN(600))
				if from > to {
					from, to = to, from
				}
				if len(seen) > 0 && r.IntN(2) == 0 {
					from = seen[r.IntN(len(seen))]
					to = from + netsim.Time(r.IntN(3)*r.IntN(200))
				}
				if r.IntN(10) == 0 {
					from, to = math.MinInt64, math.MaxInt64
				}
				checkWindow(t, step, dense, oracle, l, from, to)
			}
		}
		if dense.Size() != oracle.size {
			t.Fatalf("step %d: Size %d, oracle %d", step, dense.Size(), oracle.size)
		}
	}
	for l := topology.LinkID(0); l < links+2; l++ {
		checkWindow(t, -1, dense, oracle, l, math.MinInt64, math.MaxInt64)
	}
	if !regD.Snapshot().Equal(regM.Snapshot()) {
		t.Fatalf("metrics %+v, oracle %+v", regD.Snapshot(), regM.Snapshot())
	}
	if !compacted {
		t.Error("no size class was compacted; the moved link set should leave one mostly free")
	}
}

func checkWindow(t *testing.T, step int, dense *Archive, oracle *mapArchive, l topology.LinkID, from, to netsim.Time) {
	t.Helper()
	got, want := dense.Window(l, from, to), oracle.window(l, from, to)
	if len(got) != len(want) {
		t.Fatalf("step %d: Window(%d, %d, %d) has %d records, oracle %d", step, l, from, to, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: Window(%d, %d, %d)[%d] = %+v, oracle %+v", step, l, from, to, i, got[i], want[i])
		}
	}
}
