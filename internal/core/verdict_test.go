package core

import (
	"testing"
)

func TestWindowConfigValidate(t *testing.T) {
	t.Parallel()
	if err := DefaultWindowConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []WindowConfig{{W: 0, M: 1}, {W: 10, M: 0}, {W: 10, M: 11}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if _, err := NewCompactVerdictWindow(WindowConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestVerdictWindowThreshold(t *testing.T) {
	t.Parallel()
	vw, err := NewCompactVerdictWindow(WindowConfig{W: 5, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	const peer = uint32(1)
	add := func(guilty bool) bool {
		return vw.Add(peer, Verdict{Guilty: guilty})
	}
	if add(true) || add(true) {
		t.Error("accused before reaching M")
	}
	if !add(true) {
		t.Error("not accused at M guilty verdicts")
	}
	if vw.GuiltyCount(peer) != 3 {
		t.Errorf("GuiltyCount = %d", vw.GuiltyCount(peer))
	}
}

func TestVerdictWindowEviction(t *testing.T) {
	t.Parallel()
	vw, err := NewCompactVerdictWindow(WindowConfig{W: 3, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	const peer = uint32(2)
	// guilty, guilty -> trips.
	vw.Add(peer, Verdict{Guilty: true})
	if !vw.Add(peer, Verdict{Guilty: true}) {
		t.Fatal("did not trip at M=2")
	}
	// One innocent still leaves two guilty verdicts in the window.
	if !vw.Add(peer, Verdict{Guilty: false}) {
		t.Error("window [g,g,i] should still meet M=2")
	}
	// Two more innocents evict both guilty verdicts.
	for i := 0; i < 2; i++ {
		if vw.Add(peer, Verdict{Guilty: false}) {
			t.Error("tripped after guilty verdicts were evicted")
		}
	}
	if vw.GuiltyCount(peer) != 0 {
		t.Errorf("GuiltyCount = %d after eviction", vw.GuiltyCount(peer))
	}
}

func TestVerdictWindowPerPeerIsolation(t *testing.T) {
	t.Parallel()
	vw, err := NewCompactVerdictWindow(WindowConfig{W: 10, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	const a, b = uint32(0xaa), uint32(0xbb)
	vw.Add(a, Verdict{Guilty: true})
	if vw.Add(b, Verdict{Guilty: true}) {
		t.Error("verdicts leaked across peers")
	}
	if vw.GuiltyCount(a) != 1 || vw.GuiltyCount(b) != 1 {
		t.Error("per-peer counts wrong")
	}
}

func TestAccusationErrorRatesPaperAnchors(t *testing.T) {
	t.Parallel()
	// §4.3: with faithful probe reporting (p_good=1.8%, p_faulty=93.8%),
	// m=6 drives both error rates below 1% at w=100.
	fp, fn, err := AccusationErrorRates(WindowConfig{W: 100, M: 6}, 0.018, 0.938)
	if err != nil {
		t.Fatal(err)
	}
	if fp > 0.01 {
		t.Errorf("honest m=6 FP = %v, want <1%%", fp)
	}
	if fn > 0.01 {
		t.Errorf("honest m=6 FN = %v, want <1%%", fn)
	}
	// With 20% collusion (p_good=8.4%, p_faulty=71.3%), m=16 suffices.
	fp, fn, err = AccusationErrorRates(WindowConfig{W: 100, M: 16}, 0.084, 0.713)
	if err != nil {
		t.Fatal(err)
	}
	if fp > 0.01 {
		t.Errorf("collusion m=16 FP = %v, want <1%%", fp)
	}
	if fn > 0.01 {
		t.Errorf("collusion m=16 FN = %v, want <1%%", fn)
	}
	// But m=6 under collusion has too many false positives.
	fp, _, err = AccusationErrorRates(WindowConfig{W: 100, M: 6}, 0.084, 0.713)
	if err != nil {
		t.Fatal(err)
	}
	if fp < 0.05 {
		t.Errorf("collusion m=6 FP = %v, expected substantial", fp)
	}
}

func TestMinimalMMatchesPaper(t *testing.T) {
	t.Parallel()
	m, err := MinimalM(100, 0.018, 0.938, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if m < 5 || m > 7 {
		t.Errorf("honest minimal m = %d, paper says 6", m)
	}
	m, err = MinimalM(100, 0.084, 0.713, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if m < 14 || m > 18 {
		t.Errorf("collusion minimal m = %d, paper says 16", m)
	}
	// Impossible targets error out.
	if _, err := MinimalM(10, 0.5, 0.5, 0.001); err == nil {
		t.Error("unachievable target accepted")
	}
	if _, err := MinimalM(0, 0.1, 0.9, 0.01); err == nil {
		t.Error("w=0 accepted")
	}
	if _, err := MinimalM(100, 0.1, 0.9, 0); err == nil {
		t.Error("target=0 accepted")
	}
}

func TestAccusationErrorRatesMonotoneInM(t *testing.T) {
	t.Parallel()
	prevFP, prevFN := 1.0, 0.0
	for m := 1; m <= 30; m++ {
		fp, fn, err := AccusationErrorRates(WindowConfig{W: 100, M: m}, 0.05, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if fp > prevFP+1e-12 {
			t.Fatalf("FP not decreasing at m=%d", m)
		}
		if fn < prevFN-1e-12 {
			t.Fatalf("FN not increasing at m=%d", m)
		}
		prevFP, prevFN = fp, fn
	}
	if _, _, err := AccusationErrorRates(WindowConfig{W: 100, M: 6}, -0.1, 0.9); err == nil {
		t.Error("negative probability accepted")
	}
}

func BenchmarkVerdictWindowAdd(b *testing.B) {
	vw, err := NewCompactVerdictWindow(DefaultWindowConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vw.Add(9, Verdict{Guilty: i%7 == 0})
	}
}

var sinkF float64

func BenchmarkAccusationErrorRates(b *testing.B) {
	cfg := WindowConfig{W: 100, M: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fp, fn, err := AccusationErrorRates(cfg, 0.084, 0.713)
		if err != nil {
			b.Fatal(err)
		}
		sinkF = fp + fn
	}
}
