package wire

import (
	"math"
	"testing"

	"concilium/internal/core"
)

func TestAdvertBytes(t *testing.T) {
	t.Parallel()
	got, err := AdvertBytes(77)
	if err != nil {
		t.Fatal(err)
	}
	if got != 77*145 {
		t.Errorf("AdvertBytes(77) = %d", got)
	}
	if _, err := AdvertBytes(-1); err == nil {
		t.Error("negative entries accepted")
	}
}

func TestBudgetMatchesPaperSection44(t *testing.T) {
	t.Parallel()
	// §4.4: 100k-node overlay → ~77 routing entries, ~11.5 KB advert,
	// ~16.7 MB of outgoing heavyweight probe traffic (100 stripes of 2
	// 30-byte packets per ordered pair).
	rep, err := Budget(core.DefaultOccupancyModel(), 100000, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.RoutingEntries-77) > 3 {
		t.Errorf("routing entries = %v, paper says 77", rep.RoutingEntries)
	}
	if rep.AdvertBytes < 10500 || rep.AdvertBytes > 12500 {
		t.Errorf("advert = %v bytes, paper says ~11.5KB", rep.AdvertBytes)
	}
	if rep.HeavyweightMB < 15 || rep.HeavyweightMB > 19 {
		t.Errorf("heavyweight = %v MB, paper says ~16.7MB", rep.HeavyweightMB)
	}
}

func TestHeavyweightProbeBytes(t *testing.T) {
	t.Parallel()
	// 77 leaves → C(77,2)=2926 pairs ×100×2×30B = 17.556 MB.
	got, err := HeavyweightProbeBytes(77, 100, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2926*100*2*30 {
		t.Errorf("HeavyweightProbeBytes = %d", got)
	}
	// Degenerate trees cost nothing.
	got, err = HeavyweightProbeBytes(1, 100, 2, 30)
	if err != nil || got != 0 {
		t.Errorf("single leaf = %d, %v", got, err)
	}
	if _, err := HeavyweightProbeBytes(10, 0, 2, 30); err == nil {
		t.Error("zero stripes accepted")
	}
	if _, err := HeavyweightProbeBytes(-1, 1, 2, 30); err == nil {
		t.Error("negative leaves accepted")
	}
}

func TestProbePacketSize(t *testing.T) {
	t.Parallel()
	// §4.4: "each probe is 30 bytes long (28 bytes for IP+UDP headers
	// and 16 bits for a nonce)".
	if ProbePacketBytes != 30 {
		t.Errorf("ProbePacketBytes = %d, want 30", ProbePacketBytes)
	}
}

func TestBudgetScalesWithOverlay(t *testing.T) {
	t.Parallel()
	m := core.DefaultOccupancyModel()
	small, err := Budget(m, 1000, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Budget(m, 100000, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if big.RoutingEntries <= small.RoutingEntries {
		t.Error("routing state should grow with overlay size")
	}
	if big.HeavyweightMB <= small.HeavyweightMB {
		t.Error("probe cost should grow with overlay size")
	}
	// Logarithmic growth: 100x overlay costs far less than 100x state.
	if big.RoutingEntries > 3*small.RoutingEntries {
		t.Errorf("routing state growth not logarithmic: %v -> %v",
			small.RoutingEntries, big.RoutingEntries)
	}
}
