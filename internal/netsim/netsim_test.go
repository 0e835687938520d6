package netsim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"concilium/internal/topology"
)

func testRand() *rand.Rand { return rand.New(rand.NewPCG(21, 23)) }

func lineGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g, err := topology.NewGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		if _, err := g.AddLink(topology.RouterID(i), topology.RouterID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestSimulatorOrdering(t *testing.T) {
	t.Parallel()
	s := NewSimulator()
	var order []int
	if err := s.Schedule(30, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(10, func() { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(20, func() { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	// Same-time events run in scheduling order.
	if err := s.Schedule(20, func() { order = append(order, 4) }); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(100)
	want := []int{1, 2, 3}
	_ = want
	if len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 4 || order[3] != 3 {
		t.Errorf("order = %v, want [1 2 4 3]", order)
	}
	if s.Now() != 100 {
		t.Errorf("final time = %v, want 100", s.Now())
	}
}

// TestSimulatorScheduleAllocFree locks in the value-typed event heap:
// once the heap has grown, scheduling and running events allocates
// nothing, and events still run by time, then by scheduling order.
func TestSimulatorScheduleAllocFree(t *testing.T) {
	s := NewSimulator()
	r := testRand()
	var ran []int
	fns := make([]func(), 256)
	delays := make([]time.Duration, len(fns))
	for i := range fns {
		i := i
		fns[i] = func() { ran = append(ran, i) }
		delays[i] = time.Duration(r.IntN(16)) // many events share an instant
	}
	round := func() {
		ran = ran[:0]
		for i, fn := range fns {
			if err := s.ScheduleAfter(delays[i], fn); err != nil {
				t.Fatal(err)
			}
		}
		for s.Step() {
		}
	}
	round() // grows the heap and ran
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("Schedule+Step allocates %.1f per %d events, want 0", n, len(fns))
	}
	for k := 1; k < len(ran); k++ {
		a, b := ran[k-1], ran[k]
		if delays[a] > delays[b] || delays[a] == delays[b] && a > b {
			t.Fatalf("event %d (delay %v) ran before event %d (delay %v)", a, delays[a], b, delays[b])
		}
	}
}

func TestSimulatorRejectsPastAndNil(t *testing.T) {
	t.Parallel()
	s := NewSimulator()
	if err := s.Schedule(10, func() {}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10)
	if err := s.Schedule(5, func() {}); err == nil {
		t.Error("scheduling in the past should fail")
	}
	if err := s.Schedule(20, nil); err == nil {
		t.Error("nil event should fail")
	}
}

func TestSimulatorNestedScheduling(t *testing.T) {
	t.Parallel()
	s := NewSimulator()
	var fired int
	var rec func()
	rec = func() {
		fired++
		if fired < 5 {
			if err := s.ScheduleAfter(time.Second, rec); err != nil {
				t.Errorf("nested schedule: %v", err)
			}
		}
	}
	if err := s.ScheduleAfter(time.Second, rec); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * time.Second)
	if fired != 5 {
		t.Errorf("fired %d times, want 5", fired)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d", s.Pending())
	}
}

func TestSimulatorRunUntilStopsAtDeadline(t *testing.T) {
	t.Parallel()
	s := NewSimulator()
	var late bool
	if err := s.Schedule(Time(time.Hour), func() { late = true }); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(Time(time.Minute))
	if late {
		t.Error("event past deadline ran")
	}
	if s.Now() != Time(time.Minute) {
		t.Errorf("clock = %v, want 1 minute", s.Now())
	}
	s.RunUntil(Time(2 * time.Hour))
	if !late {
		t.Error("event never ran")
	}
}

func TestTimeHelpers(t *testing.T) {
	t.Parallel()
	t0 := Time(0).Add(90 * time.Second)
	if t0.Seconds() != 90 {
		t.Errorf("Seconds = %v", t0.Seconds())
	}
	if t0.Sub(Time(0)) != 90*time.Second {
		t.Errorf("Sub = %v", t0.Sub(Time(0)))
	}
}

func TestNetworkLinkState(t *testing.T) {
	t.Parallel()
	g := lineGraph(t, 4)
	n, err := NewNetwork(g, NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	if n.DownCount() != 0 {
		t.Error("fresh network has down links")
	}
	if err := n.SetLinkDown(1, true); err != nil {
		t.Fatal(err)
	}
	if !n.LinkDown(1) || n.DownCount() != 1 {
		t.Error("SetLinkDown did not register")
	}
	// Idempotent.
	if err := n.SetLinkDown(1, true); err != nil || n.DownCount() != 1 {
		t.Error("repeated SetLinkDown changed count")
	}
	if err := n.SetLinkDown(1, false); err != nil || n.DownCount() != 0 {
		t.Error("repair did not register")
	}
	if err := n.SetLinkDown(99, true); err == nil {
		t.Error("unknown link accepted")
	}
}

func TestNetworkPathChecks(t *testing.T) {
	t.Parallel()
	g := lineGraph(t, 4)
	n, err := NewNetwork(g, NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	path := []topology.LinkID{0, 1, 2}
	if !n.PathUp(path) {
		t.Error("healthy path reported down")
	}
	if _, bad := n.FirstDownLink(path); bad {
		t.Error("healthy path has a down link")
	}
	if err := n.SetLinkDown(2, true); err != nil {
		t.Fatal(err)
	}
	if n.PathUp(path) {
		t.Error("path with down link reported up")
	}
	l, bad := n.FirstDownLink(path)
	if !bad || l != 2 {
		t.Errorf("FirstDownLink = %d,%v", l, bad)
	}
	if p := n.LinkLoss(1); p != 0 {
		t.Errorf("binary model loses %v on a healthy link", p)
	}
	if p := n.LinkLoss(2); p != 1 {
		t.Errorf("binary model loses %v on a down link, want 1", p)
	}
}

func TestNetworkLossModel(t *testing.T) {
	t.Parallel()
	g := lineGraph(t, 2)
	n, err := NewNetwork(g, NewSimulator(),
		WithLossModel(LossModel{BaseLoss: 0.5, DownLoss: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if p := n.LinkLoss(0); p != 0.5 {
		t.Errorf("healthy link loss %v, want the base 0.5", p)
	}
	if err := n.SetLinkDown(0, true); err != nil {
		t.Fatal(err)
	}
	if p := n.LinkLoss(0); p != 1 {
		t.Errorf("down link loss %v, want the down 1", p)
	}
	if _, err := NewNetwork(g, NewSimulator(),
		WithLossModel(LossModel{BaseLoss: -1})); err == nil {
		t.Error("invalid loss model accepted")
	}
}

func TestFailureConfigValidate(t *testing.T) {
	t.Parallel()
	good := DefaultFailureConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*FailureConfig){
		func(c *FailureConfig) { c.DownFraction = -0.1 },
		func(c *FailureConfig) { c.DownFraction = 1 },
		func(c *FailureConfig) { c.MeanDowntime = 0 },
		func(c *FailureConfig) { c.StdDowntime = -time.Second },
		func(c *FailureConfig) { c.MinDowntime = -time.Second },
		func(c *FailureConfig) { c.DepthAlpha = 0 },
		func(c *FailureConfig) { c.DepthBeta = -1 },
	}
	for i, mutate := range cases {
		c := DefaultFailureConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestFailureInjectorHoldsTarget(t *testing.T) {
	t.Parallel()
	g := lineGraph(t, 101) // 100 links
	sim := NewSimulator()
	r := testRand()
	n, err := NewNetwork(g, sim)
	if err != nil {
		t.Fatal(err)
	}
	// One long path covering all 100 links.
	path := make([]topology.LinkID, 100)
	for i := range path {
		path[i] = topology.LinkID(i)
	}
	cfg := DefaultFailureConfig()
	cfg.DownFraction = 0.10
	cfg.MeanDowntime = time.Minute
	cfg.StdDowntime = 20 * time.Second
	cfg.MinDowntime = 5 * time.Second
	inj, err := NewFailureInjector(n, r, [][]topology.LinkID{path}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Target() != 10 {
		t.Fatalf("target = %d, want 10", inj.Target())
	}
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	if n.DownCount() != 10 {
		t.Fatalf("initial down = %d, want 10", n.DownCount())
	}
	if err := inj.Start(); err == nil {
		t.Error("second Start accepted")
	}
	// Across two virtual hours, the count must stay pinned at the target
	// through many repair/replace cycles.
	for i := 0; i < 24; i++ {
		sim.RunFor(5 * time.Minute)
		if got := n.DownCount(); got != 10 {
			t.Fatalf("after %d min: down = %d, want 10", (i+1)*5, got)
		}
	}
}

func TestFailureInjectorDepthBias(t *testing.T) {
	t.Parallel()
	// With Beta(0.9, 0.6) (mean 0.6) failures should skew toward the far
	// (edge/leaf) end of the path.
	g := lineGraph(t, 101)
	sim := NewSimulator()
	r := testRand()
	n, err := NewNetwork(g, sim)
	if err != nil {
		t.Fatal(err)
	}
	path := make([]topology.LinkID, 100)
	for i := range path {
		path[i] = topology.LinkID(i)
	}
	cfg := DefaultFailureConfig()
	cfg.DownFraction = 0.3
	inj, err := NewFailureInjector(n, r, [][]topology.LinkID{path}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	var sum, cnt float64
	for l := 0; l < 100; l++ {
		if n.LinkDown(topology.LinkID(l)) {
			sum += float64(l)
			cnt++
		}
	}
	if cnt == 0 {
		t.Fatal("no links failed")
	}
	if mean := sum / cnt; mean < 50 {
		t.Errorf("mean failed depth %v, want > 50 (edge biased)", mean)
	}
}

func TestFailureInjectorRejectsBadInput(t *testing.T) {
	t.Parallel()
	g := lineGraph(t, 3)
	sim := NewSimulator()
	r := testRand()
	n, err := NewNetwork(g, sim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFailureInjector(nil, r, nil, DefaultFailureConfig()); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewFailureInjector(n, r, nil, DefaultFailureConfig()); err == nil {
		t.Error("no paths accepted")
	}
	if _, err := NewFailureInjector(n, r, [][]topology.LinkID{{}}, DefaultFailureConfig()); err == nil {
		t.Error("only empty paths accepted")
	}
	bad := DefaultFailureConfig()
	bad.DownFraction = 2
	if _, err := NewFailureInjector(n, r, [][]topology.LinkID{{0}}, bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFailureInjectorReinjectsDeficit(t *testing.T) {
	t.Parallel()
	g := lineGraph(t, 5) // 4 links
	sim := NewSimulator()
	r := testRand()
	n, err := NewNetwork(g, sim)
	if err != nil {
		t.Fatal(err)
	}
	path := []topology.LinkID{0, 1, 2, 3}
	cfg := DefaultFailureConfig()
	cfg.DownFraction = 0.5 // target 2 of 4
	cfg.MeanDowntime = time.Minute
	cfg.StdDowntime = 10 * time.Second
	cfg.MinDowntime = 30 * time.Second
	inj, err := NewFailureInjector(n, r, [][]topology.LinkID{path}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	if n.DownCount() != 2 || inj.Deficit() != 0 {
		t.Fatalf("after start: down=%d deficit=%d", n.DownCount(), inj.Deficit())
	}
	// Saturate the candidate set: externally fail the remaining links,
	// then demand one more failure. Selection cannot land anywhere, so
	// the demand must become deficit, not vanish.
	var external []topology.LinkID
	for _, l := range path {
		if !n.LinkDown(l) {
			external = append(external, l)
			if err := n.SetLinkDown(l, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	injected, err := inj.failOne()
	if err != nil {
		t.Fatal(err)
	}
	if injected || inj.Deficit() != 1 || inj.Stats().SaturatedSkips != 1 {
		t.Fatalf("saturated failOne: injected=%v deficit=%d stats=%+v",
			injected, inj.Deficit(), inj.Stats())
	}
	// Free the external links; the next repair must re-inject the owed
	// failure on top of its own replacement.
	for _, l := range external {
		if err := n.SetLinkDown(l, false); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(30 * time.Minute)
	if got := n.DownCount(); got != 3 {
		t.Errorf("down = %d, want 3 (target 2 + one re-injected deficit)", got)
	}
	if inj.Deficit() != 0 {
		t.Errorf("deficit = %d, want 0 after re-injection", inj.Deficit())
	}
	if s := inj.Stats(); s.Reinjected == 0 {
		t.Errorf("stats = %+v, want Reinjected > 0", s)
	}
}

func BenchmarkSimulatorChurn(b *testing.B) {
	s := NewSimulator()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.ScheduleAfter(time.Millisecond, func() {}); err != nil {
			b.Fatal(err)
		}
		s.Step()
	}
}

// Property: events fire in non-decreasing time order regardless of the
// order they were scheduled in.
func TestPropEventOrdering(t *testing.T) {
	t.Parallel()
	f := func(delays []uint16) bool {
		s := NewSimulator()
		var fired []Time
		for _, d := range delays {
			at := Time(d)
			if err := s.Schedule(at, func() { fired = append(fired, s.Now()) }); err != nil {
				return false
			}
		}
		s.RunUntil(Time(1 << 20))
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the network's down-count always equals the number of
// distinct down links, through arbitrary set/clear sequences.
func TestPropDownCountConsistent(t *testing.T) {
	t.Parallel()
	g := lineGraphN(t, 33) // 32 links
	f := func(ops []uint16) bool {
		n, err := NewNetwork(g, NewSimulator())
		if err != nil {
			return false
		}
		truth := map[topology.LinkID]bool{}
		for _, op := range ops {
			link := topology.LinkID(op % 32)
			down := op&0x8000 != 0
			if err := n.SetLinkDown(link, down); err != nil {
				return false
			}
			truth[link] = down
		}
		var want int
		for l, d := range truth {
			if d != n.LinkDown(l) {
				return false
			}
			if d {
				want++
			}
		}
		return n.DownCount() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func lineGraphN(t *testing.T, n int) *topology.Graph {
	t.Helper()
	return lineGraph(t, n)
}
