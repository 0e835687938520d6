package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func testRand() *rand.Rand { return rand.New(rand.NewPCG(42, 17)) }

func TestNormalCDFKnownValues(t *testing.T) {
	t.Parallel()
	n := Normal{Mu: 0, Sigma: 1}
	tests := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{2, 0.9772498680518208},
		{-3, 0.0013498980316300933},
	}
	for _, tc := range tests {
		if got := n.CDF(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestNormalSurvivalComplement(t *testing.T) {
	t.Parallel()
	n := Normal{Mu: -1, Sigma: 0.5}
	for _, x := range []float64{-3, -1, 0, 2.5} {
		if got := n.CDF(x) + n.Survival(x); math.Abs(got-1) > 1e-12 {
			t.Errorf("CDF+Survival at %v = %v", x, got)
		}
	}
}

func TestNormalSampleMoments(t *testing.T) {
	t.Parallel()
	n := Normal{Mu: 10, Sigma: 2}
	r := testRand()
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = n.Sample(r)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.05 {
		t.Errorf("sample mean %v, want ~10", m)
	}
	if sd := StdDev(xs); math.Abs(sd-2) > 0.05 {
		t.Errorf("sample stddev %v, want ~2", sd)
	}
}

func TestPoissonBinomialMoments(t *testing.T) {
	t.Parallel()
	probs := []float64{0.1, 0.5, 0.9, 0.3}
	pb, err := NewPoissonBinomial(probs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pb.Mean(), 1.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	want := 0.1*0.9 + 0.5*0.5 + 0.9*0.1 + 0.3*0.7
	if got := pb.Variance(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestPoissonBinomialPaperVarianceIdentity(t *testing.T) {
	t.Parallel()
	// The paper's σφ² = ℓvμ(1−μ) − ℓvσ² must equal the exact Poisson
	// binomial variance Σ p(1−p).
	r := testRand()
	probs := make([]float64, 512)
	for i := range probs {
		probs[i] = r.Float64()
	}
	pb, err := NewPoissonBinomial(probs)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := pb.NormalApprox()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(approx.Mu-pb.Mean()) > 1e-9 {
		t.Errorf("approx mean %v, exact %v", approx.Mu, pb.Mean())
	}
	if math.Abs(approx.Sigma*approx.Sigma-pb.Variance()) > 1e-9 {
		t.Errorf("approx variance %v, exact %v", approx.Sigma*approx.Sigma, pb.Variance())
	}
}

func TestPoissonBinomialExactPMF(t *testing.T) {
	t.Parallel()
	pb, err := NewPoissonBinomial([]float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pmf := pb.ExactPMF()
	want := []float64{0.125, 0.375, 0.375, 0.125}
	for k, w := range want {
		if math.Abs(pmf[k]-w) > 1e-12 {
			t.Errorf("pmf[%d] = %v, want %v", k, pmf[k], w)
		}
	}
}

func TestPoissonBinomialPMFSumsToOne(t *testing.T) {
	t.Parallel()
	r := testRand()
	probs := make([]float64, 100)
	for i := range probs {
		probs[i] = r.Float64()
	}
	pb, err := NewPoissonBinomial(probs)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range pb.ExactPMF() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("pmf sums to %v", sum)
	}
}

func TestPoissonBinomialNormalApproxClose(t *testing.T) {
	t.Parallel()
	// With many heterogeneous trials the normal CDF should track the
	// exact CDF closely — this is the claim behind the paper's Figure 1.
	probs := make([]float64, 400)
	r := testRand()
	for i := range probs {
		probs[i] = 0.1 + 0.8*r.Float64()
	}
	pb, err := NewPoissonBinomial(probs)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := pb.NormalApprox()
	if err != nil {
		t.Fatal(err)
	}
	pmf := pb.ExactPMF()
	var cdf float64
	for k, p := range pmf {
		cdf += p
		a := approx.CDF(float64(k) + 0.5)
		if math.Abs(a-cdf) > 0.01 {
			t.Fatalf("normal approx CDF at %d: %v vs exact %v", k, a, cdf)
		}
	}
}

func TestPoissonBinomialRejectsBadInput(t *testing.T) {
	t.Parallel()
	if _, err := NewPoissonBinomial(nil); err == nil {
		t.Error("empty trials should fail")
	}
	if _, err := NewPoissonBinomial([]float64{0.5, 1.5}); err == nil {
		t.Error("probability >1 should fail")
	}
	if _, err := NewPoissonBinomial([]float64{-0.1}); err == nil {
		t.Error("negative probability should fail")
	}
}

func TestPoissonBinomialDegenerateApprox(t *testing.T) {
	t.Parallel()
	pb, err := NewPoissonBinomial([]float64{0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.NormalApprox(); err == nil {
		t.Error("degenerate distribution should refuse a normal approximation")
	}
}

func TestBinomialPMFMatchesHandComputed(t *testing.T) {
	t.Parallel()
	b, err := NewBinomial(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.0625, 0.25, 0.375, 0.25, 0.0625}
	for k, w := range want {
		if got := b.PMF(k); math.Abs(got-w) > 1e-12 {
			t.Errorf("PMF(%d) = %v, want %v", k, got, w)
		}
	}
	if b.PMF(-1) != 0 || b.PMF(5) != 0 {
		t.Error("out-of-range PMF should be 0")
	}
}

func TestBinomialEdgeProbabilities(t *testing.T) {
	t.Parallel()
	b0, _ := NewBinomial(10, 0)
	if b0.PMF(0) != 1 || b0.PMF(1) != 0 {
		t.Error("p=0 should concentrate at 0")
	}
	b1, _ := NewBinomial(10, 1)
	if b1.PMF(10) != 1 || b1.PMF(9) != 0 {
		t.Error("p=1 should concentrate at N")
	}
}

func TestBinomialTailsComplementary(t *testing.T) {
	t.Parallel()
	b, err := NewBinomial(100, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{0, 1, 30, 70, 100, 101} {
		up, lo := b.UpperTail(m), b.LowerTail(m)
		if math.Abs(up+lo-1) > 1e-9 {
			t.Errorf("m=%d: UpperTail+LowerTail = %v", m, up+lo)
		}
	}
}

func TestBinomialPaperWindowNumbers(t *testing.T) {
	t.Parallel()
	// Sanity anchor from §4.3's structure: with w=100 and small p_good,
	// raising m drives the false positive (upper tail) down monotonically.
	b, err := NewBinomial(100, 0.018)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for m := 1; m <= 20; m++ {
		cur := b.UpperTail(m)
		if cur > prev {
			t.Fatalf("upper tail not monotone at m=%d", m)
		}
		prev = cur
	}
	if got := b.UpperTail(6); got > 0.01 {
		t.Errorf("w=100, p=0.018, m=6: FP %v, expected <1%%", got)
	}
	// And a faulty node with p=0.938 almost never stays under m=6.
	bf, _ := NewBinomial(100, 0.938)
	if got := bf.LowerTail(6); got > 1e-20 {
		t.Errorf("faulty lower tail %v unexpectedly large", got)
	}
}

func TestBinomialSampleMean(t *testing.T) {
	t.Parallel()
	b, _ := NewBinomial(50, 0.4)
	r := testRand()
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(b.Sample(r))
	}
	if m := sum / n; math.Abs(m-20) > 0.3 {
		t.Errorf("sample mean %v, want ~20", m)
	}
}

func TestNewBinomialRejectsBadInput(t *testing.T) {
	t.Parallel()
	if _, err := NewBinomial(-1, 0.5); err == nil {
		t.Error("negative trials should fail")
	}
	if _, err := NewBinomial(10, 1.1); err == nil {
		t.Error("p>1 should fail")
	}
	if _, err := NewBinomial(10, math.NaN()); err == nil {
		t.Error("NaN p should fail")
	}
}

func TestBetaMomentsMatchTheory(t *testing.T) {
	t.Parallel()
	// The paper's failure-depth distribution.
	b, err := NewBeta(0.9, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := 0.9 / 1.5
	if math.Abs(b.Mean()-wantMean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", b.Mean(), wantMean)
	}
	r := testRand()
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = b.Sample(r)
		if xs[i] < 0 || xs[i] > 1 {
			t.Fatalf("beta sample %v out of [0,1]", xs[i])
		}
	}
	if m := Mean(xs); math.Abs(m-wantMean) > 0.01 {
		t.Errorf("sample mean %v, want ~%v", m, wantMean)
	}
	if v := Variance(xs); math.Abs(v-b.Variance()) > 0.01 {
		t.Errorf("sample variance %v, want ~%v", v, b.Variance())
	}
}

func TestBetaShapeAboveOne(t *testing.T) {
	t.Parallel()
	b, err := NewBeta(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := testRand()
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = b.Sample(r)
	}
	if m := Mean(xs); math.Abs(m-5.0/7.0) > 0.01 {
		t.Errorf("sample mean %v, want ~%v", m, 5.0/7.0)
	}
}

func TestNewBetaRejectsBadInput(t *testing.T) {
	t.Parallel()
	for _, bad := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}, {math.NaN(), 1}, {1, math.Inf(1)}} {
		if _, err := NewBeta(bad[0], bad[1]); err == nil {
			t.Errorf("NewBeta(%v, %v) should fail", bad[0], bad[1])
		}
	}
}

func TestSummaryStatistics(t *testing.T) {
	t.Parallel()
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance of singleton = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	t.Parallel()
	h, err := NewHistogram(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.05, 0.15, 0.15, 0.95, -1, 2} {
		h.Add(x)
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d, want 6", h.Total())
	}
	if h.Counts[0] != 2 { // 0.05 and clamped -1
		t.Errorf("bin 0 count = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 2 {
		t.Errorf("bin 1 count = %d, want 2", h.Counts[1])
	}
	if h.Counts[9] != 2 { // 0.95 and clamped 2
		t.Errorf("bin 9 count = %d, want 2", h.Counts[9])
	}
	var sum float64
	for _, d := range h.Density() {
		sum += d
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("density sums to %v", sum)
	}
	if got := h.BinCenter(0); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("BinCenter(0) = %v", got)
	}
}

func TestNewHistogramRejectsBadInput(t *testing.T) {
	t.Parallel()
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins should fail")
	}
	if _, err := NewHistogram(1, 1, 5); err == nil {
		t.Error("empty range should fail")
	}
}

// Property: binomial tails are proper probabilities and monotone in m.
func TestPropBinomialTails(t *testing.T) {
	t.Parallel()
	f := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw%100) + 1
		p := float64(pRaw) / 65535
		b, err := NewBinomial(n, p)
		if err != nil {
			return false
		}
		prev := 1.0
		for m := 0; m <= n+1; m++ {
			u := b.UpperTail(m)
			if u < -1e-12 || u > 1+1e-12 || u > prev+1e-12 {
				return false
			}
			prev = u
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Poisson binomial exact mean matches pmf-weighted mean.
func TestPropPoissonBinomialMeanConsistent(t *testing.T) {
	t.Parallel()
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		probs := make([]float64, len(raw))
		for i, v := range raw {
			probs[i] = float64(v) / 65535
		}
		pb, err := NewPoissonBinomial(probs)
		if err != nil {
			return false
		}
		var m float64
		for k, p := range pb.ExactPMF() {
			m += float64(k) * p
		}
		return math.Abs(m-pb.Mean()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKolmogorovSmirnovDetectsFitAndMisfit(t *testing.T) {
	t.Parallel()
	n := Normal{Mu: 0, Sigma: 1}
	r := testRand()
	sample := make([]float64, 2000)
	for i := range sample {
		sample[i] = n.Sample(r)
	}
	d, err := KolmogorovSmirnov(sample, n.CDF)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := KSCriticalValue(len(sample), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if d > crit {
		t.Errorf("normal sample rejected against its own CDF: D=%v crit=%v", d, crit)
	}
	// The same sample against a shifted reference must be rejected.
	shifted := Normal{Mu: 1, Sigma: 1}
	d, err = KolmogorovSmirnov(sample, shifted.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if d <= crit {
		t.Errorf("shifted reference not rejected: D=%v crit=%v", d, crit)
	}
}

func TestKolmogorovSmirnovValidation(t *testing.T) {
	t.Parallel()
	n := Normal{Mu: 0, Sigma: 1}
	if _, err := KolmogorovSmirnov(nil, n.CDF); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := KolmogorovSmirnov([]float64{1}, nil); err == nil {
		t.Error("nil CDF accepted")
	}
	bad := func(float64) float64 { return 2 }
	if _, err := KolmogorovSmirnov([]float64{1}, bad); err == nil {
		t.Error("invalid CDF accepted")
	}
	if _, err := KSCriticalValue(0, 0.05); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := KSCriticalValue(10, 0.5); err == nil {
		t.Error("unsupported alpha accepted")
	}
}

func TestKolmogorovSmirnovDoesNotMutateSample(t *testing.T) {
	t.Parallel()
	n := Normal{Mu: 0, Sigma: 1}
	xs := []float64{3, 1, 2}
	if _, err := KolmogorovSmirnov(xs, n.CDF); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("KS statistic reordered the caller's sample")
	}
}
