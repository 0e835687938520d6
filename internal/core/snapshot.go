package core

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
)

// Validation errors a snapshot can fail with. Callers distinguish them
// because each triggers a different response (§3.2): signature and
// freshness failures justify an immediate fault accusation against the
// prober; density failures mark the advert fraudulent. ErrUnknownSigner
// means the key directory does not resolve the signer or, for a snapshot
// the plane admits, that the prober is no longer a member; its message
// still says "certificate", kept so rejection traces stay unchanged.
var (
	ErrBadSnapshotSignature = errors.New("core: snapshot signature invalid")
	ErrBadEntrySignature    = errors.New("core: routing entry freshness signature invalid")
	ErrStaleEntry           = errors.New("core: routing entry freshness timestamp too old")
	ErrFutureEntry          = errors.New("core: routing entry freshness timestamp in the future")
	ErrTableTooSparse       = errors.New("core: advertised jump table fails density test")
	ErrLeafSetTooSparse     = errors.New("core: advertised leaf set fails density test")
	ErrUnknownSigner        = errors.New("core: no certificate for signer")
)

// AdvertEntry is one advertised routing-table slot: the peer plus the
// signed liveness timestamp that peer piggybacked on a recent
// availability probe. The timestamp defeats inflation attacks that pad
// tables with identifiers of departed hosts (§3.1).
type AdvertEntry struct {
	Peer      id.ID
	Freshness sigcrypto.Timestamp
}

// Snapshot is the signed bundle a host periodically sends its routing
// peers (§3.2): its probed link statuses for T_H, its advertised routing
// entries with freshness timestamps, and its leaf-set spacing (the input
// to Castro's leaf density test). The signature prevents both spoofing
// and later disavowal of published probe results.
type Snapshot struct {
	Prober       id.ID
	At           netsim.Time
	Observations []tomography.LinkObservation
	Entries      []AdvertEntry
	LeafSpacing  float64
	Signature    []byte
}

// payload returns the canonical bytes covered by the signature.
func (s *Snapshot) payload() []byte {
	buf := make([]byte, 0, 64+9*len(s.Observations)+(id.Bytes+8)*len(s.Entries))
	buf = append(buf, "snap"...)
	buf = append(buf, s.Prober[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.At))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.LeafSpacing))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Observations)))
	for _, o := range s.Observations {
		buf = binary.BigEndian.AppendUint32(buf, uint32(o.Link))
		if o.Up {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Entries)))
	for _, e := range s.Entries {
		buf = append(buf, e.Peer[:]...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.Freshness.At))
		buf = append(buf, e.Freshness.Signature...)
	}
	return buf
}

// Sign signs the snapshot as the prober.
func (s *Snapshot) Sign(kp sigcrypto.KeyPair) { s.Signature = kp.Sign(s.payload()) }

// VerifySignature checks the snapshot signature under the prober's key.
func (s *Snapshot) VerifySignature(pub ed25519.PublicKey) error {
	if !sigcrypto.Verify(pub, s.payload(), s.Signature) {
		return ErrBadSnapshotSignature
	}
	return nil
}

// KeyDirectory resolves overlay identifiers to public keys. The
// simulation's one directory is CompactSystem.KeyDir, which answers for
// every identifier the system ever admitted.
type KeyDirectory func(id.ID) (ed25519.PublicKey, bool)

// SnapshotValidator performs the §3.2 checks a node runs on every
// received snapshot before archiving it: signature verification (the
// snapshot's and each entry's freshness timestamp), freshness bounds,
// the jump-table density test against the local table, and Castro's
// leaf-set density test.
type SnapshotValidator struct {
	// Keys resolves signer identities.
	Keys KeyDirectory
	// MaxEntryAge bounds how old a freshness timestamp may be relative
	// to the snapshot time; availability probes run at least once a
	// minute or two, so a couple of probe periods is typical.
	MaxEntryAge time.Duration
	// JumpTest compares the advertised occupancy against LocalOccupancy.
	JumpTest DensityTest
	// LocalOccupancy is the validating node's own jump-table occupancy.
	LocalOccupancy int
	// LeafGamma bounds how much sparser (by mean spacing) an advertised
	// leaf set may be than the local one before it is suspicious.
	LeafGamma float64
	// LocalLeafSpacing is the validating node's own mean leaf spacing.
	LocalLeafSpacing float64
}

// Validate runs every check, returning the first failure. A nil error
// means the snapshot may be archived.
func (v *SnapshotValidator) Validate(s *Snapshot) error {
	if v.Keys == nil {
		return fmt.Errorf("core: validator has no key directory")
	}
	proberKey, ok := v.Keys(s.Prober)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSigner, s.Prober.Short())
	}
	if err := s.VerifySignature(proberKey); err != nil {
		return err
	}
	for _, e := range s.Entries {
		peerKey, ok := v.Keys(e.Peer)
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownSigner, e.Peer.Short())
		}
		if e.Freshness.NodeID != e.Peer {
			return fmt.Errorf("%w: timestamp for %s attached to entry %s",
				ErrBadEntrySignature, e.Freshness.NodeID.Short(), e.Peer.Short())
		}
		if err := sigcrypto.VerifyTimestamp(peerKey, e.Freshness); err != nil {
			return fmt.Errorf("%w: entry %s", ErrBadEntrySignature, e.Peer.Short())
		}
		age := s.At.Sub(netsim.Time(e.Freshness.At))
		switch {
		case age < 0:
			return fmt.Errorf("%w: entry %s is %v ahead", ErrFutureEntry, e.Peer.Short(), -age)
		case v.MaxEntryAge > 0 && age > v.MaxEntryAge:
			return fmt.Errorf("%w: entry %s is %v old", ErrStaleEntry, e.Peer.Short(), age)
		}
	}
	if v.JumpTest.Gamma > 0 {
		if !v.JumpTest.Check(float64(v.LocalOccupancy), float64(len(s.Entries))) {
			return fmt.Errorf("%w: advertised %d vs local %d (γ=%v)",
				ErrTableTooSparse, len(s.Entries), v.LocalOccupancy, v.JumpTest.Gamma)
		}
	}
	if v.LeafGamma > 0 && v.LocalLeafSpacing > 0 && s.LeafSpacing > 0 {
		// Castro's test: a leaf set whose average spacing is much wider
		// than the local one is hiding peers.
		if s.LeafSpacing > v.LeafGamma*v.LocalLeafSpacing {
			return fmt.Errorf("%w: advertised spacing %.3g vs local %.3g (γ=%v)",
				ErrLeafSetTooSparse, s.LeafSpacing, v.LocalLeafSpacing, v.LeafGamma)
		}
	}
	return nil
}
