package core

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/sigcrypto"
	"concilium/internal/topology"
)

// Accusation and commitment errors.
var (
	ErrBadCommitmentSignature = errors.New("core: forwarding commitment signature invalid")
	ErrBadAccusationSignature = errors.New("core: accusation signature invalid")
	ErrCommitmentMismatch     = errors.New("core: commitment does not cover the accused message")
	ErrBlameMismatch          = errors.New("core: recorded blame does not match the evidence")
	ErrBlameBelowThreshold    = errors.New("core: evidence does not support a guilty verdict")
	ErrBrokenChain            = errors.New("core: revision chain links do not connect")
)

// Commitment is a signed forwarding promise (§3.6): Via agrees to
// forward message MsgID from From toward Dest. Accusations must include
// the accused's commitment, so a malicious sender cannot frame a peer
// for a message it never sent.
type Commitment struct {
	From      id.ID
	Via       id.ID
	Dest      id.ID
	MsgID     uint64
	At        netsim.Time
	Signature []byte
}

func (c *Commitment) payload() []byte {
	buf := make([]byte, 0, 6+3*id.Bytes+16)
	buf = append(buf, "commit"...)
	buf = append(buf, c.From[:]...)
	buf = append(buf, c.Via[:]...)
	buf = append(buf, c.Dest[:]...)
	buf = binary.BigEndian.AppendUint64(buf, c.MsgID)
	buf = binary.BigEndian.AppendUint64(buf, uint64(c.At))
	return buf
}

// NewCommitment signs a forwarding promise as via.
func NewCommitment(kp sigcrypto.KeyPair, from, via, dest id.ID, msgID uint64, at netsim.Time) Commitment {
	c := Commitment{From: from, Via: via, Dest: dest, MsgID: msgID, At: at}
	c.Signature = kp.Sign(c.payload())
	return c
}

// Verify checks the commitment under via's public key.
func (c *Commitment) Verify(viaPub ed25519.PublicKey) error {
	if !sigcrypto.Verify(viaPub, c.payload(), c.Signature) {
		return ErrBadCommitmentSignature
	}
	return nil
}

// Accusation is a signed, self-verifying fault claim (§3.4): Accuser
// judged Accused for dropping message MsgID, with the archived per-link
// evidence that produced the blame value. Third parties recompute the
// blame from the evidence before honoring the accusation, and the
// commitment proves the accused agreed to forward that very message.
type Accusation struct {
	Accuser    id.ID
	Accused    id.ID
	MsgID      uint64
	At         netsim.Time
	Blame      float64
	Path       []topology.LinkID
	Evidence   []LinkConfidence
	Commitment Commitment
	Signature  []byte
}

func (a *Accusation) payload() []byte {
	buf := make([]byte, 0, 64+13*len(a.Evidence))
	buf = append(buf, "accuse"...)
	buf = append(buf, a.Accuser[:]...)
	buf = append(buf, a.Accused[:]...)
	buf = binary.BigEndian.AppendUint64(buf, a.MsgID)
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.At))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(a.Blame))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(a.Path)))
	for _, l := range a.Path {
		buf = binary.BigEndian.AppendUint32(buf, uint32(l))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(a.Evidence)))
	for _, lc := range a.Evidence {
		buf = binary.BigEndian.AppendUint32(buf, uint32(lc.Link))
		buf = binary.BigEndian.AppendUint32(buf, uint32(lc.Probes))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(lc.Confidence))
	}
	buf = append(buf, a.Commitment.payload()...)
	buf = append(buf, a.Commitment.Signature...)
	return buf
}

// NewAccusation assembles and signs an accusation from a guilty blame
// result and the accused's forwarding commitment.
func NewAccusation(kp sigcrypto.KeyPair, accuser id.ID, res BlameResult, msgID uint64, path []topology.LinkID, commitment Commitment) (Accusation, error) {
	if !res.Guilty {
		return Accusation{}, fmt.Errorf("core: refusing to build an accusation from a non-guilty result")
	}
	if commitment.Via != res.Judged {
		return Accusation{}, fmt.Errorf("%w: commitment from %s, judging %s",
			ErrCommitmentMismatch, commitment.Via.Short(), res.Judged.Short())
	}
	if commitment.MsgID != msgID {
		return Accusation{}, fmt.Errorf("%w: commitment covers message %d, accusing for %d",
			ErrCommitmentMismatch, commitment.MsgID, msgID)
	}
	if commitment.From != accuser {
		return Accusation{}, fmt.Errorf("%w: commitment given to %s, accuser is %s",
			ErrCommitmentMismatch, commitment.From.Short(), accuser.Short())
	}
	a := Accusation{
		Accuser:    accuser,
		Accused:    res.Judged,
		MsgID:      msgID,
		At:         res.At,
		Blame:      res.Blame,
		Path:       append([]topology.LinkID(nil), path...),
		Evidence:   append([]LinkConfidence(nil), res.Evidence...),
		Commitment: commitment,
	}
	a.Signature = kp.Sign(a.payload())
	return a, nil
}

// Verify performs the third-party checks of §3.4: the accuser's
// signature, the accused's commitment for this exact message given to
// this accuser, and an independent recomputation of the blame from the
// archived evidence against the verifier's guilty threshold. A
// commitment the accused gave to another host (say, one read from a
// chain published in the DHT) does not let a third host frame it.
func (a *Accusation) Verify(keys KeyDirectory, threshold float64) error {
	if keys == nil {
		return fmt.Errorf("core: nil key directory")
	}
	// The payload signs each probe count as 32 bits; a count outside
	// that range would verify under its truncation's signature while
	// encoding to different bytes.
	for _, lc := range a.Evidence {
		if lc.Probes < 0 || lc.Probes > math.MaxUint32 {
			return fmt.Errorf("core: evidence for link %d claims %d probes, outside the signed 32-bit range", lc.Link, lc.Probes)
		}
	}
	accuserPub, ok := keys(a.Accuser)
	if !ok {
		return fmt.Errorf("%w: accuser %s", ErrUnknownSigner, a.Accuser.Short())
	}
	if !sigcrypto.Verify(accuserPub, a.payload(), a.Signature) {
		return ErrBadAccusationSignature
	}
	accusedPub, ok := keys(a.Accused)
	if !ok {
		return fmt.Errorf("%w: accused %s", ErrUnknownSigner, a.Accused.Short())
	}
	if err := a.Commitment.Verify(accusedPub); err != nil {
		return err
	}
	if a.Commitment.Via != a.Accused || a.Commitment.From != a.Accuser || a.Commitment.MsgID != a.MsgID {
		return ErrCommitmentMismatch
	}
	recomputed := RecomputeBlame(a.Evidence)
	if math.Abs(recomputed-a.Blame) > 1e-9 {
		return fmt.Errorf("%w: recorded %v, recomputed %v", ErrBlameMismatch, a.Blame, recomputed)
	}
	if recomputed < threshold {
		return fmt.Errorf("%w: blame %v below threshold %v", ErrBlameBelowThreshold, recomputed, threshold)
	}
	return nil
}

// RevisionChain is an amended accusation (§3.5): the ordered verdicts
// issued along the route — A blames B, B blames C, C blames D — whose
// last element names the host that could not push blame further
// downstream. Because every element is independently signed and
// self-verifying, the chain as a whole is too.
type RevisionChain struct {
	Links []Accusation
}

// NewRevisionChain validates chain structure (see connected) and
// copies the links into a new chain.
func NewRevisionChain(links []Accusation) (*RevisionChain, error) {
	if err := connected(links); err != nil {
		return nil, err
	}
	return &RevisionChain{Links: append([]Accusation(nil), links...)}, nil
}

// connected checks chain structure: at least one link, and each
// accusation's accused is the next accusation's accuser, for the same
// message to the same destination. Verify applies it too, because
// chains decoded from the DHT never pass through NewRevisionChain. It
// neither copies nor allocates unless it fails.
func connected(links []Accusation) error {
	if len(links) == 0 {
		return fmt.Errorf("core: empty revision chain")
	}
	for i := 0; i+1 < len(links); i++ {
		if links[i].Accused != links[i+1].Accuser {
			return fmt.Errorf("%w: link %d accuses %s but link %d is from %s",
				ErrBrokenChain, i, links[i].Accused.Short(), i+1, links[i+1].Accuser.Short())
		}
		if links[i].MsgID != links[i+1].MsgID {
			return fmt.Errorf("%w: message ids %d and %d differ",
				ErrBrokenChain, links[i].MsgID, links[i+1].MsgID)
		}
		if links[i].Commitment.Dest != links[i+1].Commitment.Dest {
			return fmt.Errorf("%w: link %d's commitment is toward %s, link %d's toward %s",
				ErrBrokenChain, i, links[i].Commitment.Dest.Short(), i+1, links[i+1].Commitment.Dest.Short())
		}
	}
	return nil
}

// Culprit returns the host the amended accusation ultimately blames.
func (rc *RevisionChain) Culprit() id.ID {
	return rc.Links[len(rc.Links)-1].Accused
}

// Verify validates the chain's structure and every link in it; a valid
// chain transfers the original accusation's blame onto the culprit.
func (rc *RevisionChain) Verify(keys KeyDirectory, threshold float64) error {
	if err := connected(rc.Links); err != nil {
		return err
	}
	for i := range rc.Links {
		if err := rc.Links[i].Verify(keys, threshold); err != nil {
			return fmt.Errorf("core: chain link %d: %w", i, err)
		}
	}
	return nil
}
