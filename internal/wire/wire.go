// Package wire provides Concilium's bandwidth accounting (§4.4): the
// byte-exact arithmetic model the paper uses (PSS-R signatures over
// routing entries, one-byte path summaries, 30-byte striped probes). The
// model regenerates the paper's numbers — an ≈11.5 KB routing advert in
// a 100,000-node overlay and ≈16.7 MB of outgoing traffic for one
// heavyweight tree measurement.
package wire

import (
	"fmt"

	"concilium/internal/core"
	"concilium/internal/wiresize"
)

// Sizes from §4.4's accounting, re-exported from the dependency-free
// internal/wiresize so instrumented protocol layers (which cannot
// import this package without a cycle through core) share the same
// byte model.
const (
	// NodeIDBytes is the identifier length in a routing entry.
	NodeIDBytes = wiresize.NodeID
	// FreshnessTimestampBytes is the per-entry signed timestamp payload.
	FreshnessTimestampBytes = wiresize.FreshnessTimestamp
	// PSSREntryBytes is a routing entry (identifier + timestamp) signed
	// with PSS-R over a 1024-bit key: message recovery folds the 20
	// payload bytes into the 128-byte signature block, totalling 144.
	PSSREntryBytes = wiresize.PSSREntry
	// PathSummaryBytes encodes one path's probe results: "a few bits",
	// budgeted at one byte.
	PathSummaryBytes = wiresize.PathSummary
	// IPUDPHeaderBytes is the IP+UDP header overhead per probe.
	IPUDPHeaderBytes = wiresize.IPUDPHeader
	// ProbeNonceBytes is the 16-bit probe nonce.
	ProbeNonceBytes = wiresize.ProbeNonce
	// ProbePacketBytes is one striped unicast probe on the wire.
	ProbePacketBytes = wiresize.ProbePacket
	// LeafSetEntries is the leaf count added to μφ for total routing
	// state size.
	LeafSetEntries = wiresize.LeafSetEntries
)

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
// state size for an overlay of n nodes: μφ occupied jump-table slots
// plus the 16 leaves.
func ExpectedRoutingEntries(model core.OccupancyModel, n int) (float64, error) {
	mu, err := model.ExpectedOccupancy(n)
	if err != nil {
		return 0, err
	}
	return mu + LeafSetEntries, nil
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
// with the given heavyweight parameters.
func Budget(model core.OccupancyModel, n, stripesPerPair, packetsPerStripe int) (BandwidthReport, error) {
	entries, err := ExpectedRoutingEntries(model, n)
	if err != nil {
		return BandwidthReport{}, err
	}
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
