package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// randomBlameCase builds an archive with random probe evidence over a
// random path and returns everything needed to evaluate blame.
func randomBlameCase(r *rand.Rand) (*handArchive, id.ID, []topology.LinkID, netsim.Time) {
	arch := newHandArchive(20)
	judged := id.Random(r)
	pathLen := 1 + r.IntN(10)
	path := make([]topology.LinkID, pathLen)
	for i := range path {
		path[i] = topology.LinkID(r.IntN(20))
	}
	probers := make([]id.ID, 1+r.IntN(5))
	for i := range probers {
		probers[i] = id.Random(r)
	}
	at := netsim.Time(1_000_000_000)
	for rec := 0; rec < r.IntN(40); rec++ {
		prober := probers[r.IntN(len(probers))]
		link := path[r.IntN(len(path))]
		_ = arch.Record(arch.handle(prober), at, []tomography.LinkObservation{
			{Link: link, Up: r.IntN(2) == 0},
		})
	}
	return arch, judged, path, at
}

// Property: blame is always a probability and matches its own evidence
// recomputation (the self-verification third parties rely on).
func TestPropBlameInRangeAndSelfConsistent(t *testing.T) {
	t.Parallel()
	f := func(seed uint32) bool {
		r := rand.New(rand.NewPCG(uint64(seed), 77))
		arch, judged, path, at := randomBlameCase(r)
		eng, err := arch.engine(DefaultBlameConfig())
		if err != nil {
			return false
		}
		res, err := eng.Blame(judged, path, at)
		if err != nil {
			return false
		}
		if res.Blame < 0 || res.Blame > 1 {
			return false
		}
		if RecomputeBlame(res.Evidence) != res.Blame {
			return false
		}
		if res.Guilty != (res.Blame >= eng.Config().GuiltyThreshold) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a fresh "link down" observation from a third party can only
// lower (or hold) the judged node's blame, and a fresh "link up"
// observation can only raise (or hold) it. This is the monotonicity
// that makes the evidence rules coherent: exculpatory data never hurts
// the accused, incriminating-for-the-network data never helps it.
func TestPropBlameMonotoneInEvidence(t *testing.T) {
	t.Parallel()
	f := func(seed uint32, downObs bool) bool {
		r := rand.New(rand.NewPCG(uint64(seed), 99))
		arch, judged, path, at := randomBlameCase(r)
		eng, err := arch.engine(DefaultBlameConfig())
		if err != nil {
			return false
		}
		before, err := eng.Blame(judged, path, at)
		if err != nil {
			return false
		}
		// Add one more observation on a random path link from a fresh
		// third-party prober. For the "up" direction the link must
		// already carry evidence: the first probe of an untouched link
		// introduces the (1−a) baseline uncertainty, which legitimately
		// moves blame off the no-evidence extreme of 1.
		witness := id.Random(r)
		idx := r.IntN(len(path))
		link := path[idx]
		if !downObs && before.Evidence[idx].Probes == 0 {
			return true
		}
		if err := arch.Record(arch.handle(witness), at, []tomography.LinkObservation{
			{Link: link, Up: !downObs},
		}); err != nil {
			return false
		}
		after, err := eng.Blame(judged, path, at)
		if err != nil {
			return false
		}
		if downObs {
			return after.Blame <= before.Blame+1e-12
		}
		return after.Blame >= before.Blame-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the judged node's own records never change its blame.
func TestPropSelfProbesNeverMatter(t *testing.T) {
	t.Parallel()
	f := func(seed uint32, up bool) bool {
		r := rand.New(rand.NewPCG(uint64(seed), 111))
		arch, judged, path, at := randomBlameCase(r)
		eng, err := arch.engine(DefaultBlameConfig())
		if err != nil {
			return false
		}
		before, err := eng.Blame(judged, path, at)
		if err != nil {
			return false
		}
		for _, l := range path {
			if err := arch.Record(arch.handle(judged), at, []tomography.LinkObservation{{Link: l, Up: up}}); err != nil {
				return false
			}
		}
		after, err := eng.Blame(judged, path, at)
		if err != nil {
			return false
		}
		return after.Blame == before.Blame
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
