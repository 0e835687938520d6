package tomography

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"concilium/internal/metrics"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// fuzzLinks is the fuzzed archive's link range. Inputs name links a
// little past it, and one below it, so range checks are exercised.
const fuzzLinks = 48

// FuzzArchiveOps drives the archive and the map-of-slices oracle
// through the operation sequence the input spells and compares every
// error, read, Size and metric after every operation. The first byte
// of an operation picks it:
//
//	0–199   Record: handle, time and size bytes, then a seed byte k
//	        that draws the statuses and links from [k mod 48, 48); a
//	        size byte s gives s²/64 observations, so a few operations
//	        fill several log blocks
//	200–239 Prune: a byte b cuts 8·b behind the clock, or 2048 more
//	        when b is odd, so prunes also go backward
//	240–249 Span: link, from and width bytes; the runs are compared
//	250–255 Window over the same bytes, or the whole time line
//
// A negative time byte records that many times sixteen ticks behind
// the clock, so out-of-order records meet staged sweeps; reads are one
// operation in sixteen, so prunes and out-of-order records usually
// find sweeps pending.
func FuzzArchiveOps(f *testing.F) {
	// Forty full sweeps with no read (several log blocks), a prune
	// that drops half of them staged, an out-of-order record the
	// settled links refuse, then reads.
	var backlog []byte
	for i := 0; i < 40; i++ {
		backlog = append(backlog, 0, 1, 4, 0xff, byte(i))
	}
	backlog = append(backlog, 200, 10, 0, 1, 0xf0, 0x40, 7, 240, 3, 0, 0xff, 250, 9, 0xf8, 0x80)
	f.Add(backlog)
	f.Add([]byte{0, 1, 2, 40, 1, 0, 6, 3, 40, 2, 240, 5, 2, 9, 0, 7, 0xfe, 40, 3, 250, 5, 1, 1})
	// Links a prune empties taking records older than the census's
	// oldest, invalid handles and links, a backward prune and a time
	// past 32 bits.
	f.Add([]byte{0, 1, 1, 30, 0, 0, 2, 5, 8, 176, 200, 0, 0, 1, 0xff, 8, 1, 0, 3, 0xfe, 8, 2, 240, 5, 0, 0xff,
		0, 0, 1, 30, 1, 0, 7, 1, 30, 2, 0, 3, 1, 60, 0xc5, 201, 0, 2, 0x7f, 50, 5, 0, 2, 0x80, 50, 6, 255, 0, 0, 0})
	// Mixed sequences, as the fuzzer's first mutations see them.
	r := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < 4; i++ {
		in := make([]byte, 1200)
		for j := range in {
			in[j] = byte(r.IntN(256))
		}
		f.Add(in)
	}
	f.Fuzz(checkArchiveOps)
}

// checkArchiveOps runs one FuzzArchiveOps input.
func checkArchiveOps(t *testing.T, in []byte) {
	const maxOps = 256
	regD, regM := metrics.NewRegistry(), metrics.NewRegistry()
	dense, oracle := NewArchive(fuzzLinks), newMapArchive(regM)
	dense.SetMetrics(regD)
	handles := []ProberHandle{0, 1, 2, 3, 1 << 16, maxHandle, maxHandle + 1, 5}
	var now netsim.Time
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	for step := 0; step < maxOps && len(in) > 0; step++ {
		switch op := next(); {
		case op < 200:
			h := handles[next()%byte(len(handles))]
			at := now
			switch d := int8(next()); {
			case d == math.MaxInt8:
				now += 1 << 33
				at = now
			case d >= 0:
				now += netsim.Time(d)
				at = now
			default:
				at += 16 * netsim.Time(d)
			}
			s := int(next())
			obs := make([]LinkObservation, s*s/64)
			seed := next()
			r := rand.New(rand.NewPCG(uint64(seed), uint64(step)))
			lo := int(seed) % fuzzLinks
			for i := range obs {
				obs[i] = LinkObservation{Link: topology.LinkID(lo + r.IntN(fuzzLinks-lo)), Up: r.IntN(3) != 0}
			}
			if len(obs) > 0 && seed&0xc0 == 0xc0 {
				obs[r.IntN(len(obs))].Link = topology.LinkID(fuzzLinks + int(seed&3) - 1)
			}
			got, want := dense.Record(h, at, obs), oracleRecord(oracle, h, at, obs)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: Record(%d, %d, %d obs) = %v, oracle %v", step, h, at, len(obs), got, want)
			}
		case op < 240:
			b := next()
			before := now - 8*netsim.Time(b)
			if b&1 != 0 {
				before -= 2048
			}
			dense.Prune(before)
			oracle.prune(before)
		default:
			l := topology.LinkID(int(next())%(fuzzLinks+2) - 1)
			from := now - 8*netsim.Time(next())
			to := from + 4*netsim.Time(next())
			if op == 255 {
				from, to = math.MinInt64, math.MaxInt64
			}
			want := oracle.window(l, from, to)
			var got []ProbeRecord
			if op < 250 {
				s := dense.Span(l, from, to)
				for run := s.Next(); run != nil; run = s.Next() {
					if len(run) == 0 {
						t.Fatalf("step %d: Span(%d, %d, %d) yielded an empty run", step, l, from, to)
					}
					got = append(got, run...)
				}
			} else {
				got = dense.Window(l, from, to)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: read(%d, %d, %d) = %v, oracle %v", step, l, from, to, got, want)
			}
		}
		if dense.Size() != oracle.size {
			t.Fatalf("step %d: Size %d, oracle %d", step, dense.Size(), oracle.size)
		}
		if !regD.Snapshot().Equal(regM.Snapshot()) {
			t.Fatalf("step %d: metrics %+v, oracle %+v", step, regD.Snapshot(), regM.Snapshot())
		}
	}
	for l := topology.LinkID(0); l < fuzzLinks; l++ {
		got, want := dense.Window(l, math.MinInt64, math.MaxInt64), oracle.window(l, math.MinInt64, math.MaxInt64)
		if !slices.Equal(got, want) {
			t.Fatalf("final link %d: %v, oracle %v", l, got, want)
		}
	}
}

// oracleRecord is Archive.Record's contract over the oracle: the
// handle and each link in turn are checked in the archive's order and
// with its messages, and a call that passes is recorded.
func oracleRecord(o *mapArchive, h ProberHandle, at netsim.Time, obs []LinkObservation) error {
	if h == 0 || h > maxHandle {
		return fmt.Errorf("tomography: prober handle %d outside [1, %d]", h, maxHandle)
	}
	for _, ob := range obs {
		if ob.Link < 0 || ob.Link >= fuzzLinks {
			return fmt.Errorf("tomography: link %d outside [0, %d)", ob.Link, fuzzLinks)
		}
		if recs := o.byLink[ob.Link]; len(recs) > 0 && recs[len(recs)-1].At() > at {
			return fmt.Errorf("tomography: out-of-order record for link %d (%v after %v)",
				ob.Link, at, recs[len(recs)-1].At())
		}
	}
	return o.record(h, at, obs)
}
