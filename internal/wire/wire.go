// Package wire provides Concilium's bandwidth accounting (§4.4): the
// byte-exact arithmetic model the paper uses (PSS-R signatures over
// routing entries, one-byte path summaries, 30-byte striped probes). The
// model regenerates the paper's numbers — an ≈11.5 KB routing advert in
// a 100,000-node overlay and ≈16.7 MB of outgoing traffic for one
// heavyweight tree measurement.
package wire

import "fmt"

// Sizes from §4.4's accounting. Every protocol layer meters its
// bytes-on-wire with these, so the model and the metrics agree.
const (
	// NodeIDBytes is the identifier length in a routing entry.
	NodeIDBytes = 16
	// FreshnessTimestampBytes is the per-entry signed timestamp payload.
	FreshnessTimestampBytes = 4
	// PSSREntryBytes is a routing entry (identifier + timestamp) signed
	// with PSS-R over a 1024-bit key: message recovery folds the 20
	// payload bytes into the 128-byte signature block, totalling 144.
	PSSREntryBytes = 144
	// PathSummaryBytes encodes one path's probe results: "a few bits",
	// budgeted at one byte.
	PathSummaryBytes = 1
	// IPUDPHeaderBytes is the IP+UDP header overhead per packet.
	IPUDPHeaderBytes = 28
	// ProbeNonceBytes is the 16-bit probe nonce.
	ProbeNonceBytes = 2
	// ProbePacketBytes is one striped unicast probe on the wire.
	ProbePacketBytes = IPUDPHeaderBytes + ProbeNonceBytes
	// LeafSetEntries is the leaf count added to μφ for total routing
	// state size.
	LeafSetEntries = 16

	// SignatureBytes is an Ed25519 signature (the reproduction's
	// stand-in for the paper's PSS-R commitments and snapshot
	// signatures).
	SignatureBytes = 64
	// MsgIDBytes is the per-sender message counter carried in
	// commitments.
	MsgIDBytes = 8
	// TimestampBytes is a virtual-time instant on the wire.
	TimestampBytes = 8
)

// StewardedHopBytes is the modeled on-wire cost of forwarding one
// stewarded message across one overlay hop: packet header, source and
// destination identifiers, the message id, and the next hop's signed
// forwarding commitment (§3.6: judged identifier + signature).
const StewardedHopBytes = IPUDPHeaderBytes + 2*NodeIDBytes + MsgIDBytes + NodeIDBytes + SignatureBytes

// AckHopBytes is the modeled cost of one acknowledgment leg: header,
// the acker's identifier, the message id, and its signature.
const AckHopBytes = IPUDPHeaderBytes + NodeIDBytes + MsgIDBytes + SignatureBytes

// SnapshotBytes models one signed tomographic snapshot (§3.2) carrying
// n link observations: header, prober identifier, timestamp, one
// packed (link id, status) pair per observation, and the signature.
func SnapshotBytes(n int) int {
	if n < 0 {
		n = 0
	}
	return IPUDPHeaderBytes + NodeIDBytes + TimestampBytes + n*5 + SignatureBytes
}

// AdvertBytes returns the size of a full signed routing-state
// advertisement with the given number of entries: each entry costs the
// PSS-R block plus its path summary.
func AdvertBytes(entries int) (int, error) {
	if entries < 0 {
		return 0, fmt.Errorf("wire: negative entry count %d", entries)
	}
	return entries * (PSSREntryBytes + PathSummaryBytes), nil
}

// ExpectedRoutingEntries returns the paper's estimate of local routing
// state size given the expected jump-table occupancy μφ: the occupied
// slots plus the 16 leaves.
func ExpectedRoutingEntries(occupancy float64) float64 {
	return occupancy + LeafSetEntries
}

// HeavyweightProbeBytes returns the outgoing traffic for one full
// striped-unicast measurement of a tree (§4.4):
//
//	C(leaves, 2) · stripesPerPair · packetsPerStripe · packetBytes
func HeavyweightProbeBytes(leaves, stripesPerPair, packetsPerStripe, packetBytes int) (int64, error) {
	if leaves < 0 || stripesPerPair <= 0 || packetsPerStripe <= 0 || packetBytes <= 0 {
		return 0, fmt.Errorf("wire: invalid probe accounting (%d leaves, %d stripes, %d pkts, %d bytes)",
			leaves, stripesPerPair, packetsPerStripe, packetBytes)
	}
	pairs := int64(leaves) * int64(leaves-1) / 2
	return pairs * int64(stripesPerPair) * int64(packetsPerStripe) * int64(packetBytes), nil
}

// BandwidthReport is the §4.4 table for one overlay size.
type BandwidthReport struct {
	OverlayN         int
	RoutingEntries   float64
	AdvertBytes      float64
	HeavyweightMB    float64
	StripesPerPair   int
	PacketsPerStripe int
}

// Budget computes the full bandwidth table for an overlay of n nodes
// whose expected jump-table occupancy is μφ = occupancy (the occupancy
// core.ExpectedOccupancy(n)), with the given heavyweight parameters.
func Budget(occupancy float64, n, stripesPerPair, packetsPerStripe int) (BandwidthReport, error) {
	entries := ExpectedRoutingEntries(occupancy)
	advert := entries * (PSSREntryBytes + PathSummaryBytes)
	hw, err := HeavyweightProbeBytes(int(entries+0.5), stripesPerPair, packetsPerStripe, ProbePacketBytes)
	if err != nil {
		return BandwidthReport{}, err
	}
	return BandwidthReport{
		OverlayN:         n,
		RoutingEntries:   entries,
		AdvertBytes:      advert,
		HeavyweightMB:    float64(hw) / 1e6,
		StripesPerPair:   stripesPerPair,
		PacketsPerStripe: packetsPerStripe,
	}, nil
}
