package core

import (
	"math"
	"testing"
	"time"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// newArchive returns an archive for the small link identifiers these
// tests use.
func newArchive(t *testing.T) *handArchive {
	t.Helper()
	return newHandArchive(16)
}

func record(t *testing.T, a *handArchive, prober id.ID, at netsim.Time, link topology.LinkID, up bool) {
	t.Helper()
	if err := a.Record(a.handle(prober), at, []tomography.LinkObservation{{Link: link, Up: up}}); err != nil {
		t.Fatal(err)
	}
}

func TestBlameConfigValidate(t *testing.T) {
	t.Parallel()
	if err := DefaultBlameConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []BlameConfig{
		{ProbeAccuracy: 0.4, Delta: time.Minute, GuiltyThreshold: 0.4},
		{ProbeAccuracy: 1.1, Delta: time.Minute, GuiltyThreshold: 0.4},
		{ProbeAccuracy: 0.9, Delta: 0, GuiltyThreshold: 0.4},
		{ProbeAccuracy: 0.9, Delta: time.Minute, GuiltyThreshold: 0},
		{ProbeAccuracy: 0.9, Delta: time.Minute, GuiltyThreshold: 1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewBlameEngine(nil, newArchive(t), DefaultBlameConfig()); err == nil {
		t.Error("nil archive accepted")
	}
	if _, err := NewBlameEngine(tomography.NewArchive(1), nil, DefaultBlameConfig()); err == nil {
		t.Error("nil probers accepted")
	}
}

func TestBlamePaperWorkedExample(t *testing.T) {
	t.Parallel()
	// §3.4's example: Q and R probe a link as down, S probes it up,
	// a = 0.8 → confidence the link was bad is 0.6, so blame is 0.4.
	arch := newArchive(t)
	q, r, s, judged := id.MustParse("00000000000000000000000000000001"),
		id.MustParse("00000000000000000000000000000002"),
		id.MustParse("00000000000000000000000000000003"),
		id.MustParse("00000000000000000000000000000004")
	at := netsim.Time(0).Add(1000 * time.Second)
	record(t, arch, q, at, 7, false)
	record(t, arch, r, at, 7, false)
	record(t, arch, s, at, 7, true)

	eng, err := arch.engine(BlameConfig{ProbeAccuracy: 0.8, Delta: time.Minute, GuiltyThreshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(judged, []topology.LinkID{7}, at)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Blame-0.4) > 1e-12 {
		t.Errorf("blame = %v, want 0.4 (paper's worked example)", res.Blame)
	}
	if math.Abs(res.WorstLink.Confidence-0.6) > 1e-12 {
		t.Errorf("link confidence = %v, want 0.6", res.WorstLink.Confidence)
	}
	if res.WorstLink.Probes != 3 {
		t.Errorf("probes = %d, want 3", res.WorstLink.Probes)
	}
}

func TestBlameNoEvidenceMeansFaulty(t *testing.T) {
	t.Parallel()
	// With no probes covering the path, nothing suggests the network was
	// bad, so the forwarder takes full blame (§3.4).
	eng, err := newArchive(t).engine(DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(id.Zero, []topology.LinkID{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blame != 1 {
		t.Errorf("blame = %v, want 1", res.Blame)
	}
	if !res.Guilty {
		t.Error("no-evidence blame should cross the 0.4 threshold")
	}
}

func TestBlameDegradedOnStaleEvidence(t *testing.T) {
	t.Parallel()
	// With an evidence floor, a blame call whose admissibility window
	// holds no probes (stale archive) returns a degraded verdict with
	// the widest uncertainty interval instead of convicting.
	arch := newArchive(t)
	judged := id.MustParse("0000000000000000000000000000000a")
	prober := id.MustParse("0000000000000000000000000000000b")
	sendAt := netsim.Time(0).Add(time.Hour)
	// The only probe is far older than Δ, so it is inadmissible.
	record(t, arch, prober, sendAt.Add(-30*time.Minute), 3, false)

	cfg := DefaultBlameConfig()
	cfg.MinProbesPerLink = 1
	eng, err := arch.engine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(judged, []topology.LinkID{3, 4}, sendAt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("stale evidence did not degrade the verdict")
	}
	if res.Guilty {
		t.Error("degraded verdict convicted on zero evidence")
	}
	if res.Blame != 1 || res.BlameLo != 0 {
		t.Errorf("interval = [%v, %v], want [0, 1]", res.BlameLo, res.Blame)
	}
	if res.TotalProbes != 0 {
		t.Errorf("TotalProbes = %d, want 0", res.TotalProbes)
	}
}

func TestBlameDegradedPartialEvidence(t *testing.T) {
	t.Parallel()
	// One link well probed (up), one link unprobed: the interval spans
	// from "unprobed link was broken" to "everything healthy"; the
	// conviction must not fire because the lower bound is 0.
	arch := newArchive(t)
	judged := id.MustParse("0000000000000000000000000000000c")
	prober := id.MustParse("0000000000000000000000000000000d")
	at := netsim.Time(0).Add(time.Hour)
	record(t, arch, prober, at, 8, true)

	cfg := DefaultBlameConfig()
	cfg.MinProbesPerLink = 1
	eng, err := arch.engine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(judged, []topology.LinkID{8, 9}, at)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Guilty {
		t.Errorf("degraded=%v guilty=%v, want degraded non-guilty", res.Degraded, res.Guilty)
	}
	if math.Abs(res.Blame-0.9) > 1e-12 {
		t.Errorf("blame upper = %v, want 0.9", res.Blame)
	}
	if res.BlameLo != 0 {
		t.Errorf("blame lower = %v, want 0", res.BlameLo)
	}

	// Full evidence on both links keeps the verdict sharp: interval
	// collapses and the paper's conviction logic applies unchanged.
	record(t, arch, prober, at, 9, true)
	res, err = eng.Blame(judged, []topology.LinkID{8, 9}, at)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("fully probed span still degraded")
	}
	if res.BlameLo != res.Blame {
		t.Errorf("interval [%v, %v] did not collapse", res.BlameLo, res.Blame)
	}
	if !res.Guilty {
		t.Error("healthy path with full evidence did not convict the forwarder")
	}
}

func TestBlameDownLinkExoneratesForwarder(t *testing.T) {
	t.Parallel()
	arch := newArchive(t)
	prober := id.MustParse("0000000000000000000000000000000a")
	judged := id.MustParse("0000000000000000000000000000000b")
	const at = netsim.Time(0)
	// Two independent probers saw link 5 down.
	record(t, arch, prober, at, 5, false)
	record(t, arch, id.MustParse("0000000000000000000000000000000c"), at, 5, false)
	eng, err := arch.engine(DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(judged, []topology.LinkID{4, 5}, at)
	if err != nil {
		t.Fatal(err)
	}
	// Confidence link 5 bad = 0.9 → blame = 0.1 → innocent.
	if math.Abs(res.Blame-0.1) > 1e-12 {
		t.Errorf("blame = %v, want 0.1", res.Blame)
	}
	if res.Guilty {
		t.Error("forwarder behind a probed-down link found guilty")
	}
	if res.WorstLink.Link != 5 {
		t.Errorf("worst link = %d, want 5", res.WorstLink.Link)
	}
}

func TestBlameExcludesJudgedNodesOwnProbes(t *testing.T) {
	t.Parallel()
	// The judged node claims its own next-hop link was down; nobody else
	// probed it. Its self-serving probe must be ignored (§3.4).
	arch := newArchive(t)
	judged := id.MustParse("000000000000000000000000000000bb")
	record(t, arch, judged, 0, 9, false)
	eng, err := arch.engine(DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(judged, []topology.LinkID{9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blame != 1 {
		t.Errorf("blame = %v; the node reduced its own blame with its own probe", res.Blame)
	}
}

func TestBlameRespectsDeltaWindow(t *testing.T) {
	t.Parallel()
	arch := newArchive(t)
	prober := id.MustParse("000000000000000000000000000000cc")
	judged := id.MustParse("000000000000000000000000000000dd")
	sendAt := netsim.Time(0).Add(10 * time.Minute)
	// A down observation 2 minutes before the send: outside Δ=60s.
	record(t, arch, prober, sendAt.Add(-2*time.Minute), 3, false)
	eng, err := arch.engine(DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(judged, []topology.LinkID{3}, sendAt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blame != 1 {
		t.Errorf("stale probe admitted as evidence: blame %v", res.Blame)
	}
	// The same observation 30 seconds before: inside the window.
	arch2 := newArchive(t)
	record(t, arch2, prober, sendAt.Add(-30*time.Second), 3, false)
	eng2, err := arch2.engine(DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng2.Blame(judged, []topology.LinkID{3}, sendAt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Blame-0.1) > 1e-12 {
		t.Errorf("in-window probe not used: blame %v", res.Blame)
	}
}

func TestBlameUsesWorstLink(t *testing.T) {
	t.Parallel()
	// Fuzzy OR: the link with the highest bad-confidence dominates.
	arch := newArchive(t)
	p1 := id.MustParse("000000000000000000000000000000e1")
	p2 := id.MustParse("000000000000000000000000000000e2")
	judged := id.MustParse("000000000000000000000000000000e3")
	// Link 1: one up, one down → confidence 0.5. Link 2: one down → 0.9.
	record(t, arch, p1, 0, 1, true)
	record(t, arch, p2, 0, 1, false)
	record(t, arch, p1, 0, 2, false)
	eng, err := arch.engine(DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(judged, []topology.LinkID{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstLink.Link != 2 {
		t.Errorf("worst link = %d, want 2", res.WorstLink.Link)
	}
	if math.Abs(res.Blame-0.1) > 1e-12 {
		t.Errorf("blame = %v, want 0.1", res.Blame)
	}
	if len(res.Evidence) != 2 {
		t.Errorf("evidence entries = %d, want 2", len(res.Evidence))
	}
}

func TestBlameEmptyPathRejected(t *testing.T) {
	t.Parallel()
	eng, err := newArchive(t).engine(DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Blame(id.Zero, nil, 0); err == nil {
		t.Error("empty path accepted")
	}
}

func TestRecomputeBlameMatchesEngine(t *testing.T) {
	t.Parallel()
	arch := newArchive(t)
	p := id.MustParse("000000000000000000000000000000f1")
	judged := id.MustParse("000000000000000000000000000000f2")
	record(t, arch, p, 0, 1, false)
	record(t, arch, p, 0, 2, true)
	eng, err := arch.engine(DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(judged, []topology.LinkID{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := RecomputeBlame(res.Evidence); math.Abs(got-res.Blame) > 1e-12 {
		t.Errorf("RecomputeBlame = %v, engine said %v", got, res.Blame)
	}
	if got := RecomputeBlame(nil); got != 1 {
		t.Errorf("RecomputeBlame(nil) = %v, want 1", got)
	}
}
