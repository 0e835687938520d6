package wire

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
	"concilium/internal/topology"
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

func TestSnapshotCodecRoundTrip(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(21, 22))
	kp := sigcrypto.KeyPairFromRand(r)
	nid := id.Random(r)
	peer := id.Random(r)
	snap := &core.Snapshot{
		Prober: nid,
		At:     netsim.Time(0).Add(5 * time.Minute),
		Observations: []tomography.LinkObservation{
			{Link: 3, Up: true}, {Link: 9, Up: false},
		},
		Entries: []core.AdvertEntry{
			{Peer: peer, Freshness: sigcrypto.NewTimestamp(kp, peer, 100)},
		},
		LeafSpacing: 1e30,
	}
	snap.Sign(kp)

	raw, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Prober != snap.Prober || back.At != snap.At || len(back.Observations) != 2 {
		t.Errorf("round trip mangled snapshot: %+v", back)
	}
	// The signature must survive transit.
	if err := back.VerifySignature(kp.Public); err != nil {
		t.Errorf("signature broken by codec: %v", err)
	}
	if _, err := EncodeSnapshot(nil); err == nil {
		t.Error("nil snapshot encoded")
	}
	if _, err := DecodeSnapshot([]byte("junk")); err == nil {
		t.Error("junk decoded")
	}
}

func TestChainCodecRoundTrip(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(23, 24))
	accuser := id.Random(r)
	accused := id.Random(r)
	accuserKP := sigcrypto.KeyPairFromRand(r)
	accusedKP := sigcrypto.KeyPairFromRand(r)

	eng, err := core.NewBlameEngine(tomography.NewArchive(0), core.DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(accused, []topology.LinkID{1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	commit := core.NewCommitment(accusedKP, accuser, accused, id.Random(r), 9, 90)
	acc, err := core.NewAccusation(accuserKP, accuser, res, 9, []topology.LinkID{1}, commit)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := core.NewRevisionChain([]core.Accusation{acc})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChain(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Culprit() != accused {
		t.Error("culprit mangled")
	}
	keys := func(x id.ID) ([]byte, bool) { return nil, false }
	_ = keys
	if _, err := EncodeChain(nil); err == nil {
		t.Error("nil chain encoded")
	}
	if _, err := DecodeChain(nil); err == nil {
		t.Error("nil bytes decoded")
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
