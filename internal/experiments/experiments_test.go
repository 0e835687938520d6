package experiments

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"concilium/internal/core"
	"concilium/internal/topology"
)

func testRand() *rand.Rand { return rand.New(rand.NewPCG(301, 303)) }

func TestFig1AnalyticTracksMonteCarlo(t *testing.T) {
	t.Parallel()
	cfg := Fig1Config{Ns: []int{256, 1131, 4096}, Trials: 120}
	res, err := Fig1(cfg, testRand())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Analytic.X) != 3 || len(res.MonteCarlo.X) != 3 {
		t.Fatal("wrong series lengths")
	}
	// Figure 1's claim: the model "accurately approximates" simulated
	// occupancy. At 120 trials the Monte Carlo standard error of a mean
	// is 0.16–0.23 slots (σ 1.7–2.5), so 0.75 slots is at least 3.2
	// standard errors at each size; we measure 0.226.
	if worst := res.MaxMeanError(); worst > 0.75 {
		t.Errorf("worst analytic-vs-MC gap = %v slots", worst)
	}
	// Occupancy grows with N.
	if res.Analytic.Y[2] <= res.Analytic.Y[0] {
		t.Error("occupancy not growing with N")
	}
}

func TestFig1Validation(t *testing.T) {
	t.Parallel()
	if _, err := Fig1(Fig1Config{}, testRand()); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Fig1(Fig1Config{Ns: []int{1}, Trials: 10}, testRand()); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Fig1(Fig1Config{Ns: []int{100}, Trials: 1}, testRand()); err == nil {
		t.Error("single trial accepted")
	}
}

func TestFig23CurveShapes(t *testing.T) {
	t.Parallel()
	cfg := DefaultFig23Config(false)
	cfg.Collusions = []float64{0.2, 0.3}
	res, err := Fig23(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FalsePositives) != 2 || len(res.FalseNegatives) != 2 {
		t.Fatal("wrong curve counts")
	}
	// FP decreases along γ; FN increases.
	fp := res.FalsePositives[0]
	for i := 1; i < len(fp.Y); i++ {
		if fp.Y[i] > fp.Y[i-1]+1e-9 {
			t.Fatalf("FP curve not monotone at γ=%v", fp.X[i])
		}
	}
	fn := res.FalseNegatives[0]
	for i := 1; i < len(fn.Y); i++ {
		if fn.Y[i] < fn.Y[i-1]-1e-9 {
			t.Fatalf("FN curve not monotone at γ=%v", fn.X[i])
		}
	}
	// Misclassification grows with collusion.
	if res.Optimal.Y[1] <= res.Optimal.Y[0] {
		t.Error("optimal misclassification should grow with collusion")
	}
	// Summary table renders.
	table := res.SummaryTable("fig2c")
	if len(table.Rows) != 2 {
		t.Errorf("summary rows = %d", len(table.Rows))
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, table); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty table output")
	}
}

func TestFig23SuppressionWorse(t *testing.T) {
	t.Parallel()
	plain := DefaultFig23Config(false)
	plain.Collusions = []float64{0.2}
	sup := DefaultFig23Config(true)
	sup.Collusions = []float64{0.2}
	rPlain, err := Fig23(plain)
	if err != nil {
		t.Fatal(err)
	}
	rSup, err := Fig23(sup)
	if err != nil {
		t.Fatal(err)
	}
	if rSup.Optimal.Y[0] <= rPlain.Optimal.Y[0] {
		t.Errorf("suppression should worsen misclassification: %v vs %v",
			rSup.Optimal.Y[0], rPlain.Optimal.Y[0])
	}
}

func TestFig23Validation(t *testing.T) {
	t.Parallel()
	bad := DefaultFig23Config(false)
	bad.N = 1
	if _, err := Fig23(bad); err == nil {
		t.Error("N=1 accepted")
	}
	bad = DefaultFig23Config(false)
	bad.Gammas = []float64{0.9}
	if _, err := Fig23(bad); err == nil {
		t.Error("γ<1 accepted")
	}
	bad = DefaultFig23Config(false)
	bad.Collusions = nil
	if _, err := Fig23(bad); err == nil {
		t.Error("empty collusions accepted")
	}
}

func smallSystemConfig() core.SystemConfig {
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	cfg.ArchiveRetention = 5 * time.Minute
	return cfg
}

func TestFig4CoverageShape(t *testing.T) {
	t.Parallel()
	cfg := Fig4Config{System: smallSystemConfig(), SampleHosts: 10}
	res, err := Fig4(cfg, testRand())
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 10 {
		t.Errorf("hosts = %d", res.Hosts)
	}
	cov := res.Coverage.Y
	if len(cov) < 3 {
		t.Fatalf("coverage curve too short: %d points", len(cov))
	}
	// Own tree covers a strict minority of the forest; coverage is
	// monotone and ends at 1 when every peer tree is included.
	if own := res.OwnTreeCoverage(); own <= 0 || own >= 0.9 {
		t.Errorf("own-tree coverage = %v, want fraction well below 1", own)
	}
	for i := 1; i < len(cov); i++ {
		if cov[i] < cov[i-1]-1e-12 {
			t.Fatalf("coverage decreased at %d trees", i)
		}
	}
	if last := cov[len(cov)-1]; last < 0.999 {
		t.Errorf("full inclusion coverage = %v, want 1", last)
	}
	// Vouching counts grow as trees are added.
	v := res.Vouching.Y
	if v[len(v)-1] <= v[0] {
		t.Error("vouching counts did not grow")
	}
	// Diminishing returns: the first half of the trees adds more
	// coverage than the second half.
	mid := len(cov) / 2
	firstHalf := cov[mid] - cov[0]
	secondHalf := cov[len(cov)-1] - cov[mid]
	if firstHalf <= secondHalf {
		t.Errorf("no diminishing returns: first half %+.3f, second half %+.3f",
			firstHalf, secondHalf)
	}
}

func TestFig5SeparatesFaultyFromInnocent(t *testing.T) {
	t.Parallel()
	cfg := Fig5Config{
		System:          smallSystemConfig(),
		Duration:        40 * time.Minute,
		Warmup:          6 * time.Minute,
		SampleEvents:    30,
		TriplesPerEvent: 30,
		Bins:            10,
	}
	res, err := Fig5(cfg, testRand())
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultySamples == 0 || res.InnocentSamples == 0 {
		t.Fatal("no samples collected")
	}
	// §4.3 with honest reporting: faulty nodes draw far more guilty
	// verdicts than innocent ones (paper: 93.8% vs 1.8%).
	if res.PFaulty < 0.6 {
		t.Errorf("p_faulty = %v, want high", res.PFaulty)
	}
	if res.PGood > 0.25 {
		t.Errorf("p_good = %v, want low", res.PGood)
	}
	if res.PFaulty <= res.PGood {
		t.Error("blame does not separate faulty from innocent")
	}
	// PDFs render as series.
	s := PDFSeries("faulty", res.FaultyPDF)
	if len(s.X) != 10 {
		t.Errorf("pdf series has %d bins", len(s.X))
	}
}

func TestFig5CollusionDegradesJudgment(t *testing.T) {
	t.Parallel()
	base := Fig5Config{
		System:          smallSystemConfig(),
		Duration:        40 * time.Minute,
		Warmup:          6 * time.Minute,
		SampleEvents:    30,
		TriplesPerEvent: 30,
		Bins:            10,
	}
	honest, err := Fig5(base, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	colluding := base
	colluding.System.MaliciousFraction = 0.2
	bad, err := Fig5(colluding, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5(b): collusion pushes blame toward innocents and away
	// from colluders — p_good rises and/or p_faulty falls.
	degraded := bad.PGood > honest.PGood || bad.PFaulty < honest.PFaulty
	if !degraded {
		t.Errorf("collusion had no effect: honest (%v, %v) vs colluding (%v, %v)",
			honest.PGood, honest.PFaulty, bad.PGood, bad.PFaulty)
	}
	// But separation must survive (the thresholding argument of §4.3).
	if bad.PFaulty <= bad.PGood {
		t.Error("collusion destroyed separation entirely")
	}
}

func TestFig5Validation(t *testing.T) {
	t.Parallel()
	bad := DefaultFig5Config(0)
	bad.Duration = 0
	if _, err := Fig5(bad, testRand()); err == nil {
		t.Error("zero duration accepted")
	}
	bad = DefaultFig5Config(0)
	bad.Warmup = bad.Duration
	if _, err := Fig5(bad, testRand()); err == nil {
		t.Error("warmup >= duration accepted")
	}
	bad = DefaultFig5Config(0)
	bad.SampleEvents = 0
	if _, err := Fig5(bad, testRand()); err == nil {
		t.Error("zero events accepted")
	}
	bad = DefaultFig5Config(0)
	bad.Bins = 1
	if _, err := Fig5(bad, testRand()); err == nil {
		t.Error("1 bin accepted")
	}
}

func TestFig6ReproducesPaperThresholds(t *testing.T) {
	t.Parallel()
	// Using the paper's measured probabilities directly.
	honest, err := Fig6(DefaultFig6Config(0.018, 0.938))
	if err != nil {
		t.Fatal(err)
	}
	if honest.MinimalM < 5 || honest.MinimalM > 7 {
		t.Errorf("honest minimal m = %d, paper says 6", honest.MinimalM)
	}
	colluding, err := Fig6(DefaultFig6Config(0.084, 0.713))
	if err != nil {
		t.Fatal(err)
	}
	if colluding.MinimalM < 14 || colluding.MinimalM > 18 {
		t.Errorf("collusion minimal m = %d, paper says 16", colluding.MinimalM)
	}
	if len(honest.FalsePositive.X) != 30 {
		t.Errorf("curve length = %d", len(honest.FalsePositive.X))
	}
}

func TestFig6Validation(t *testing.T) {
	t.Parallel()
	if _, err := Fig6(Fig6Config{W: 0, MaxM: 5, PGood: 0.1, PFaulty: 0.9}); err == nil {
		t.Error("w=0 accepted")
	}
	if _, err := Fig6(Fig6Config{W: 10, MaxM: 11, PGood: 0.1, PFaulty: 0.9}); err == nil {
		t.Error("maxM>w accepted")
	}
	if _, err := Fig6(Fig6Config{W: 10, MaxM: 5, PGood: -1, PFaulty: 0.9}); err == nil {
		t.Error("bad probability accepted")
	}
}

func TestBandwidthTable(t *testing.T) {
	t.Parallel()
	table, reports, err := Bandwidth(DefaultBandwidthConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 || len(reports) != 4 {
		t.Fatalf("rows = %d, reports = %d", len(table.Rows), len(reports))
	}
	// The 100k row reproduces §4.4.
	var found bool
	for _, rep := range reports {
		if rep.OverlayN == 100000 {
			found = true
			if rep.RoutingEntries < 74 || rep.RoutingEntries > 80 {
				t.Errorf("100k entries = %v, paper says 77", rep.RoutingEntries)
			}
			if rep.AdvertBytes < 10500 || rep.AdvertBytes > 12500 {
				t.Errorf("100k advert = %v, paper says ~11.5KB", rep.AdvertBytes)
			}
			if rep.HeavyweightMB < 15 || rep.HeavyweightMB > 19 {
				t.Errorf("100k heavyweight = %v, paper says ~16.7MB", rep.HeavyweightMB)
			}
		}
	}
	if !found {
		t.Error("no 100k row")
	}
	if _, _, err := Bandwidth(BandwidthConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestWriteSeriesAndTable(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	s := Series{Name: "test", X: []float64{1, 2}, Y: []float64{3, 4}, YErr: []float64{0.1, 0.2}}
	if err := WriteSeries(&buf, "title", s); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output")
	}
	bad := Series{Name: "bad", X: []float64{1}, Y: []float64{1, 2}}
	if err := WriteSeries(&buf, "t", bad); err == nil {
		t.Error("mismatched series accepted")
	}
	badTable := Table{Title: "t", Columns: []string{"a"}, Rows: [][]string{{"1", "2"}}}
	if err := WriteTable(&buf, badTable); err == nil {
		t.Error("ragged table accepted")
	}
}

func TestFig4TreelikeMatchesPaperCoverage(t *testing.T) {
	t.Parallel()
	// The paper's ~25% own-tree coverage depends on how strongly routes
	// converge; the treelike preset reproduces it.
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TreelikeConfig()
	cfg.OverlayFraction = 0.03
	res, err := Fig4(Fig4Config{System: cfg, SampleHosts: 25}, testRand())
	if err != nil {
		t.Fatal(err)
	}
	own := res.OwnTreeCoverage()
	if own < 0.18 || own > 0.40 {
		t.Errorf("treelike own-tree coverage = %.1f%%, paper says ~25%%", 100*own)
	}
}

func TestCollusionSweepShape(t *testing.T) {
	t.Parallel()
	cfg := CollusionSweepConfig{
		Fractions: []float64{0, 0.3},
		Base: Fig5Config{
			System:          smallSystemConfig(),
			Duration:        30 * time.Minute,
			Warmup:          6 * time.Minute,
			SampleEvents:    20,
			TriplesPerEvent: 20,
			Bins:            10,
		},
		Window: 100,
		Target: 0.01,
	}
	res, err := CollusionSweep(cfg, testRand())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	honest, heavy := res.Points[0], res.Points[1]
	// More collusion cannot make judgments better.
	if heavy.PGood < honest.PGood && heavy.PFaulty > honest.PFaulty {
		t.Errorf("collusion improved judgments: %+v vs %+v", honest, heavy)
	}
	// The honest point supports a small m.
	if honest.MinimalM == 0 || honest.MinimalM > 20 {
		t.Errorf("honest minimal m = %d", honest.MinimalM)
	}
	table := res.Table()
	if len(table.Rows) != 2 {
		t.Errorf("table rows = %d", len(table.Rows))
	}
}

func TestCollusionSweepValidation(t *testing.T) {
	t.Parallel()
	bad := DefaultCollusionSweepConfig()
	bad.Fractions = nil
	if _, err := CollusionSweep(bad, testRand()); err == nil {
		t.Error("empty fractions accepted")
	}
	bad = DefaultCollusionSweepConfig()
	bad.Fractions = []float64{1.5}
	if _, err := CollusionSweep(bad, testRand()); err == nil {
		t.Error("fraction > 1 accepted")
	}
	bad = DefaultCollusionSweepConfig()
	bad.Window = 0
	if _, err := CollusionSweep(bad, testRand()); err == nil {
		t.Error("zero window accepted")
	}
	bad = DefaultCollusionSweepConfig()
	bad.Target = 1
	if _, err := CollusionSweep(bad, testRand()); err == nil {
		t.Error("target=1 accepted")
	}
}

func TestCSVWriters(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	s := Series{Name: "cov", X: []float64{0, 1}, Y: []float64{0.25, 0.5}, YErr: []float64{0.01, 0.02}}
	if err := WriteSeriesCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "series,x,y,yerr") || !strings.Contains(out, "cov,0,0.25,0.01") {
		t.Errorf("csv output malformed:\n%s", out)
	}
	// Mismatched series rejected.
	bad := Series{Name: "bad", X: []float64{1}, Y: []float64{1, 2}}
	if err := WriteSeriesCSV(&buf, bad); err == nil {
		t.Error("mismatched series accepted")
	}
	buf.Reset()
	table := Table{Title: "t", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if err := WriteTableCSV(&buf, table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a,b") || !strings.Contains(buf.String(), "1,2") {
		t.Errorf("table csv malformed:\n%s", buf.String())
	}
	ragged := Table{Title: "t", Columns: []string{"a"}, Rows: [][]string{{"1", "2"}}}
	if err := WriteTableCSV(&buf, ragged); err == nil {
		t.Error("ragged table accepted")
	}
}
