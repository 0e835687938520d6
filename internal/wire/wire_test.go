package wire_test

import (
	"math"
	"testing"

	"concilium/internal/core"
	"concilium/internal/wire"
)

// budget tabulates §4.4 at overlay size n under the occupancy model,
// as the fig 7 bandwidth table does.
func budget(t *testing.T, n, stripes, packets int) wire.BandwidthReport {
	t.Helper()
	mu, err := core.ExpectedOccupancy(n)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.Budget(mu, n, stripes, packets)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestAdvertBytes(t *testing.T) {
	t.Parallel()
	got, err := wire.AdvertBytes(77)
	if err != nil {
		t.Fatal(err)
	}
	if got != 77*145 {
		t.Errorf("wire.AdvertBytes(77) = %d", got)
	}
	if _, err := wire.AdvertBytes(-1); err == nil {
		t.Error("negative entries accepted")
	}
}

func TestBudgetMatchesPaperSection44(t *testing.T) {
	t.Parallel()
	// §4.4: 100k-node overlay → ~77 routing entries, ~11.5 KB advert,
	// ~16.7 MB of outgoing heavyweight probe traffic (100 stripes of 2
	// 30-byte packets per ordered pair).
	rep := budget(t, 100000, 100, 2)
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
	got, err := wire.HeavyweightProbeBytes(77, 100, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2926*100*2*30 {
		t.Errorf("wire.HeavyweightProbeBytes = %d", got)
	}
	// Degenerate trees cost nothing.
	got, err = wire.HeavyweightProbeBytes(1, 100, 2, 30)
	if err != nil || got != 0 {
		t.Errorf("single leaf = %d, %v", got, err)
	}
	if _, err := wire.HeavyweightProbeBytes(10, 0, 2, 30); err == nil {
		t.Error("zero stripes accepted")
	}
	if _, err := wire.HeavyweightProbeBytes(-1, 1, 2, 30); err == nil {
		t.Error("negative leaves accepted")
	}
}

func TestProbePacketSize(t *testing.T) {
	t.Parallel()
	// §4.4: "each probe is 30 bytes long (28 bytes for IP+UDP headers
	// and 16 bits for a nonce)".
	if wire.ProbePacketBytes != 30 {
		t.Errorf("wire.ProbePacketBytes = %d, want 30", wire.ProbePacketBytes)
	}
}

func TestBudgetScalesWithOverlay(t *testing.T) {
	t.Parallel()
	small, big := budget(t, 1000, 100, 2), budget(t, 100000, 100, 2)
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

func TestSectionFourFourConstants(t *testing.T) {
	t.Parallel()
	// §4.4's published figures: 144-byte signed routing entries and
	// 30-byte probes.
	if wire.PSSREntryBytes != 144 {
		t.Errorf("wire.PSSREntryBytes = %d, want 144", wire.PSSREntryBytes)
	}
	if wire.ProbePacketBytes != 30 {
		t.Errorf("wire.ProbePacketBytes = %d, want 30", wire.ProbePacketBytes)
	}
	if wire.NodeIDBytes != 16 || wire.IPUDPHeaderBytes != 28 || wire.SignatureBytes != 64 {
		t.Errorf("base constants drifted: wire.NodeIDBytes=%d wire.IPUDPHeaderBytes=%d wire.SignatureBytes=%d",
			wire.NodeIDBytes, wire.IPUDPHeaderBytes, wire.SignatureBytes)
	}
}

func TestHopCosts(t *testing.T) {
	t.Parallel()
	// A stewarded hop carries strictly more than its ack leg (two extra
	// identifiers for source/destination routing).
	if wire.StewardedHopBytes <= wire.AckHopBytes {
		t.Errorf("wire.StewardedHopBytes (%d) <= wire.AckHopBytes (%d)", wire.StewardedHopBytes, wire.AckHopBytes)
	}
	if wire.StewardedHopBytes != wire.IPUDPHeaderBytes+3*wire.NodeIDBytes+wire.MsgIDBytes+wire.SignatureBytes {
		t.Errorf("wire.StewardedHopBytes = %d, composition drifted", wire.StewardedHopBytes)
	}
}

func TestSnapshotBytes(t *testing.T) {
	t.Parallel()
	base := wire.SnapshotBytes(0)
	if base != wire.IPUDPHeaderBytes+wire.NodeIDBytes+wire.TimestampBytes+wire.SignatureBytes {
		t.Errorf("empty snapshot = %d, composition drifted", base)
	}
	if got := wire.SnapshotBytes(10); got != base+50 {
		t.Errorf("wire.SnapshotBytes(10) = %d, want %d (5 bytes per observation)", got, base+50)
	}
	if wire.SnapshotBytes(-3) != base {
		t.Error("negative observation count not clamped to zero")
	}
}
