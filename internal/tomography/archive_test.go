package tomography

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// sweeper drives an archive the way a probing deployment does: each
// Record is one prober's sweep over its tree's links, probers take
// turns, and every sweep advances the clock by one tick. Tree links
// are skewed toward low link identifiers, so a few links are on most
// trees and most links on a few, as near an overlay's core and edge.
type sweeper struct {
	r       *rand.Rand
	links   int
	handles []ProberHandle
	issued  ProberHandle
	trees   [][]LinkObservation
	turn    int
	now     netsim.Time
}

func newSweeper(seed uint64, probers, treeLinks, links int) *sweeper {
	s := &sweeper{r: rand.New(rand.NewPCG(seed, 0x5eed)), links: links}
	for p := 0; p < probers; p++ {
		s.issued++
		s.handles = append(s.handles, s.issued)
		s.trees = append(s.trees, make([]LinkObservation, treeLinks))
		s.replant(p)
	}
	return s
}

// replant draws prober p's tree links afresh.
func (s *sweeper) replant(p int) {
	for i := range s.trees[p] {
		u := s.r.Float64()
		s.trees[p][i] = LinkObservation{Link: topology.LinkID(u * u * u * float64(s.links)), Up: s.r.IntN(8) != 0}
	}
}

// churn replaces prober p with a newcomer on a new tree.
func (s *sweeper) churn(p int) {
	s.issued++
	s.handles[p] = s.issued
	s.replant(p)
}

func (s *sweeper) sweep(t testing.TB, a *Archive) {
	s.now++
	if err := a.Record(s.handles[s.turn], s.now, s.trees[s.turn]); err != nil {
		t.Fatal(err)
	}
	s.turn = (s.turn + 1) % len(s.handles)
}

// run sweeps n times, pruning every quarter retention as the
// deployment does.
func (s *sweeper) run(t testing.TB, a *Archive, n int, retention netsim.Time) {
	for i := 0; i < n; i++ {
		s.sweep(t, a)
		if s.now%(retention/4) == 0 {
			a.Prune(s.now - retention)
		}
	}
}

// TestArchiveFootprintBoundedUnderChurn holds the archive's bytes to a
// constant multiple of its live records over 60 retention periods of
// sweeps in which a prober departs and a newcomer on a fresh tree
// joins every 25 sweeps, so links empty, new links fill and links move
// between size classes throughout. The bound covers the pools (live
// records, chunk slack, the quarter retention that expires between
// prunes), the per-chunk arrays, the link heads, the age census and the
// staging log; the newcomers' handles cost nothing. It holds for an
// archive never read, whose sweeps stay staged, and for one read after
// every 25 sweeps, whose sweeps are indexed.
func TestArchiveFootprintBoundedUnderChurn(t *testing.T) {
	t.Parallel()
	const (
		retention = 1000 // sweeps
		periods   = 60
		bound     = 4.0 // footprint / (live records × recordBytes)
	)
	if got := unsafe.Sizeof(linkHead{}); got != headBytes {
		t.Fatalf("linkHead is %d bytes, Footprint counts %d", got, headBytes)
	}
	for _, read := range []bool{false, true} {
		s := newSweeper(3, 128, 48, 4000)
		a := NewArchive(s.links)
		s.run(t, a, retention, retention)
		worst := 0.0
		for i := 0; i < periods*retention/25; i++ {
			s.churn(s.r.IntN(len(s.handles)))
			s.run(t, a, 25, retention)
			if read {
				a.Span(0, 0, s.now)
			}
			ratio := float64(a.Footprint()) / float64(a.Size()*recordBytes)
			worst = max(worst, ratio)
			if ratio > bound {
				t.Fatalf("read %v, after %d sweeps: footprint %d B for %d live records (%.2f× their bytes), bound %v×",
					read, s.now, a.Footprint(), a.Size(), ratio, bound)
			}
		}
		t.Logf("read %v: worst footprint %.2f× live record bytes", read, worst)
	}
}

// TestArchiveConcurrentFirstReads has four goroutines make the first
// reads of an archive whose sweeps are all staged — several log blocks
// of them, the oldest dropped by prunes — each reading Span over every
// link, and requires every result to equal a serial read of an archive
// fed the same sweeps. Under -race it also holds the settle that one
// reader makes to happen before every other reader's access.
func TestArchiveConcurrentFirstReads(t *testing.T) {
	t.Parallel()
	const retention = 400
	build := func() *Archive {
		s := newSweeper(7, 128, 48, 3000)
		a := NewArchive(s.links)
		s.run(t, a, 3*retention/2, retention)
		return a
	}
	serial, shared := build(), build()
	if len(shared.log) < 2 {
		t.Fatalf("%d log blocks pending, want several", len(shared.log))
	}
	links := len(serial.heads)
	want := make([][]ProbeRecord, links)
	for l := range want {
		want[l] = serial.Window(topology.LinkID(l), math.MinInt64, math.MaxInt64)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < links; n++ {
				l := (n + w*links/4) % links
				var got []ProbeRecord
				s := shared.Span(topology.LinkID(l), math.MinInt64, math.MaxInt64)
				for run := s.Next(); run != nil; run = s.Next() {
					got = append(got, run...)
				}
				if !slices.Equal(got, want[l]) {
					t.Errorf("reader %d: link %d reads %d records, serial %d", w, l, len(got), len(want[l]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestArchiveRecordValidatesHandle holds Record to a record's 31 bits
// of handle: the zero handle, which names nobody, and a handle too wide
// to pack are errors that archive nothing, and the extremes that fit
// are archived and read back.
func TestArchiveRecordValidatesHandle(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		h  ProberHandle
		ok bool
	}{
		{0, false},
		{1, true},
		{maxHandle, true},
		{maxHandle + 1, false},
	} {
		a := NewArchive(4)
		if err := a.Record(1, 10, []LinkObservation{{Link: 0, Up: true}}); err != nil {
			t.Fatal(err)
		}
		err := a.Record(tc.h, 20, []LinkObservation{{Link: 1, Up: false}, {Link: 2, Up: true}})
		if (err == nil) != tc.ok {
			t.Errorf("Record under handle %d: error %v, want ok=%v", tc.h, err, tc.ok)
		}
		wantSize := 1
		if tc.ok {
			wantSize = 3
		}
		if a.Size() != wantSize {
			t.Errorf("handle %d: Size %d, want %d", tc.h, a.Size(), wantSize)
		}
		for _, l := range []topology.LinkID{1, 2} {
			recs := a.Window(l, 0, 100)
			if !tc.ok && len(recs) != 0 {
				t.Errorf("rejected handle %d archived %+v on link %d", tc.h, recs, l)
			}
			if tc.ok && (len(recs) != 1 || recs[0].Prober() != tc.h) {
				t.Errorf("handle %d reads back %+v on link %d", tc.h, recs, l)
			}
		}
	}
}

// TestArchiveRecordAllOrNothingAcrossBlocks feeds Record sweeps longer
// than a log block, one or ten blocks' worth, each with one bad
// observation — first, just past the first block boundary, or last —
// into an archive that already holds settled and staged sweeps. Record
// checks links as it copies them into the log, so by the time it meets
// a bad one it has written whole blocks. Every call must fail and
// leave Size, Footprint and every later read as in a twin archive that
// never saw it. The bad observation names a link outside the archive,
// or, in a sweep older than the newest one, a link holding a newer
// record.
func TestArchiveRecordAllOrNothingAcrossBlocks(t *testing.T) {
	t.Parallel()
	const links, retention = 500, 400
	for _, long := range []int{stageLen + 100, 10 * stageLen} {
		for _, at := range []int{0, stageLen - sweepHeader, long - 1} {
			for _, order := range []bool{false, true} {
				a, twin := NewArchive(links), NewArchive(links)
				sa, st := newSweeper(9, 16, 40, links), newSweeper(9, 16, 40, links)
				history := func(n int) {
					sa.run(t, a, n, retention)
					st.run(t, twin, n, retention)
				}
				history(3 * retention)
				a.Span(0, 0, sa.now)
				twin.Span(0, 0, st.now)
				history(retention / 3)

				// Only the last sweep, at sa.now, holds records newer
				// than sa.now-1: the good observations avoid its links.
				last := sa.trees[(sa.turn+len(sa.trees)-1)%len(sa.trees)]
				var cold []topology.LinkID
				for l := topology.LinkID(0); l < links; l++ {
					if !slices.ContainsFunc(last, func(o LinkObservation) bool { return o.Link == l }) {
						cold = append(cold, l)
					}
				}
				obs := make([]LinkObservation, long)
				for i := range obs {
					obs[i] = LinkObservation{Link: cold[i%len(cold)], Up: i%3 != 0}
				}
				when := sa.now + 1
				if order {
					// An older sweep is checked against what the links
					// hold, which a read settles first in both archives.
					twin.Span(0, 0, st.now)
					obs[at].Link, when = last[0].Link, sa.now-1
				} else {
					obs[at].Link = links + 7
				}
				if err := a.Record(99, when, obs); err == nil {
					t.Fatalf("sweep of %d with a bad observation at %d (order=%v) was archived", long, at, order)
				}
				if a.Size() != twin.Size() || a.Footprint() != twin.Footprint() {
					t.Fatalf("sweep of %d, bad at %d (order=%v): size %d, %d B; twin %d, %d B",
						long, at, order, a.Size(), a.Footprint(), twin.Size(), twin.Footprint())
				}
				history(retention / 3)
				a.Prune(sa.now - retention/2)
				twin.Prune(st.now - retention/2)
				history(retention / 5)
				if a.Size() != twin.Size() || a.Footprint() != twin.Footprint() {
					t.Fatalf("sweep of %d, bad at %d (order=%v), later: size %d, %d B; twin %d, %d B",
						long, at, order, a.Size(), a.Footprint(), twin.Size(), twin.Footprint())
				}
				for l := topology.LinkID(0); l < links; l++ {
					got, want := a.Window(l, 0, sa.now), twin.Window(l, 0, st.now)
					if !slices.Equal(got, want) {
						t.Fatalf("sweep of %d, bad at %d (order=%v): link %d reads %d records, twin %d",
							long, at, order, l, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestArchiveFootprintIgnoresProberCount writes the same sweeps — the
// same links, statuses and times — under k and under 4k distinct
// handles, and requires equal footprints: the archive's state is its
// records, not the probers who wrote them.
func TestArchiveFootprintIgnoresProberCount(t *testing.T) {
	t.Parallel()
	const k, retention = 64, 2000
	few, many := NewArchive(3000), NewArchive(3000)
	s := newSweeper(5, 4*k, 40, 3000)
	for i := 0; i < 3*retention; i++ {
		s.now++
		obs := s.trees[s.turn]
		if err := few.Record(ProberHandle(1+s.turn%k), s.now, obs); err != nil {
			t.Fatal(err)
		}
		if err := many.Record(s.handles[s.turn], s.now, obs); err != nil {
			t.Fatal(err)
		}
		s.turn = (s.turn + 1) % len(s.handles)
		if s.now%(retention/4) == 0 {
			few.Prune(s.now - retention)
			many.Prune(s.now - retention)
		}
	}
	if few.Size() != many.Size() || few.Footprint() != many.Footprint() {
		t.Errorf("%d handles: %d records in %d B; %d handles: %d records in %d B",
			k, few.Size(), few.Footprint(), 4*k, many.Size(), many.Footprint())
	}
}

// BenchmarkArchiveRecord times one prober sweep into an archive shaped
// like a probing deployment's — 1024 probers over an ≈85k-link space,
// 250 links a sweep, a 6000-sweep retention pruned every quarter of it
// — after a warm-up of one and a quarter retention periods. Prunes run
// outside the timer. Nothing reads the archive, so every sweep stays
// staged: this times Record's checks and log append, not indexing.
func BenchmarkArchiveRecord(b *testing.B) {
	const retention = 6000
	s := newSweeper(1, 1024, 250, 85000)
	a := NewArchive(s.links)
	s.run(b, a, retention*5/4, retention)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sweep(b, a)
		if s.now%(retention/4) == 0 {
			b.StopTimer()
			a.Prune(s.now - retention)
			b.StartTimer()
		}
	}
}

// BenchmarkArchivePrune times the deployment's periodic Prune on the
// same archive: each op records a quarter retention period of sweeps
// and then expires the one recorded before it, which is still staged.
// The op includes the sweeps, so b.N stays small however cheap the
// Prune; prune-ns/op reports the Prune alone.
func BenchmarkArchivePrune(b *testing.B) {
	const retention = 6000
	s := newSweeper(1, 1024, 250, 85000)
	a := NewArchive(s.links)
	s.run(b, a, retention*5/4, retention)
	var pruning time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < retention/4; j++ {
			s.sweep(b, a)
		}
		start := time.Now()
		a.Prune(s.now - retention)
		pruning += time.Since(start)
	}
	b.ReportMetric(float64(pruning.Nanoseconds())/float64(b.N), "prune-ns/op")
}
