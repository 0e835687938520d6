package core

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
)

// Admission errors a snapshot can fail with. ErrUnknownSigner means
// the key directory does not resolve the signer or, for a snapshot the
// plane admits, that the prober is no longer a member.
var (
	ErrBadSnapshotSignature = errors.New("core: snapshot signature invalid")
	ErrUnknownSigner        = errors.New("core: unknown signer")
)

// Snapshot is the signed bundle a host sends its routing peers after
// each probe sweep (§3.2): its probed link statuses for T_H. The
// signature prevents both spoofing and later disavowal of published
// probe results.
type Snapshot struct {
	Prober       id.ID
	At           netsim.Time
	Observations []tomography.LinkObservation
	Signature    []byte
}

// payload returns the canonical bytes covered by the signature.
func (s *Snapshot) payload() []byte {
	buf := make([]byte, 0, 64+5*len(s.Observations))
	buf = append(buf, "snap"...)
	buf = append(buf, s.Prober[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.At))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Observations)))
	for _, o := range s.Observations {
		buf = binary.BigEndian.AppendUint32(buf, uint32(o.Link))
		if o.Up {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
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
