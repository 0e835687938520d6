package core

import (
	"concilium/internal/id"
	"concilium/internal/topology"
)

// DropKind classifies where a message (or its acknowledgment) died.
type DropKind int

// Drop causes.
const (
	// DropNone: the message was delivered and acknowledged.
	DropNone DropKind = iota + 1
	// DropByNode: a forwarder discarded the message.
	DropByNode
	// DropByLink: a failed IP link ate the message.
	DropByLink
	// DropAckByLink: the message arrived but the acknowledgment was lost.
	DropAckByLink
	// DropByChurn: the next hop departed the overlay while the message
	// was in flight, so there was nobody to hand it to.
	DropByChurn
)

// DeliveryReport is the full outcome of one stewarded message: the
// overlay route, the ground-truth drop cause, every steward's verdict,
// and the final attribution after recursive revision.
type DeliveryReport struct {
	MsgID uint64
	Route []id.ID

	Delivered   bool
	AckReceived bool
	Kind        DropKind
	DroppedBy   id.ID           // when Kind == DropByNode or DropByChurn
	BrokenLink  topology.LinkID // when Kind == DropByLink or DropAckByLink

	// ChainUnavailable reports that a culprit was identified but the
	// amended accusation could not be (fully) assembled because a
	// participant departed the overlay mid-diagnosis — the degraded
	// outcome of churn racing the protocol, not an error.
	ChainUnavailable bool

	// Verdicts holds each steward's judgment of its next hop, in route
	// order (stewards that never saw the message issue none).
	Verdicts []Verdict
	// Chain is the amended accusation assembled by recursive revision,
	// when the final attribution is a node.
	Chain *RevisionChain
	// Culprit is the node ultimately blamed; zero when the network (or
	// nothing) is blamed.
	Culprit id.ID
	// NetworkBlamed reports that revision attributed the drop to IP
	// failure rather than any forwarder.
	NetworkBlamed bool
}

// dropDetail names a drop kind for trace output.
func dropDetail(k DropKind) string {
	switch k {
	case DropByNode:
		return "by-node"
	case DropByLink:
		return "by-link"
	case DropAckByLink:
		return "ack-by-link"
	case DropByChurn:
		return "by-churn"
	default:
		return "unknown"
	}
}
