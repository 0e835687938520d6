package core

import (
	"encoding/binary"
	"hash/fnv"

	"concilium/internal/overlay"
)

// Compact canonical serialization: a byte-exact snapshot of everything
// BuildCompactSystem decides, in ring order. The format is index-based
// — peers appear as uint32 ring positions, not 16-byte identifiers —
// and tomography trees are excluded because the compact core derives
// them on demand from the immutable graph and the (already serialized)
// routing peers. Two builds from the same SystemConfig and seed must
// produce identical bytes no matter how many workers constructed them;
// the golden hash is pinned in compact_test.go, and the identity digest
// there covers what this stream leaves out (private-key seeds, trees).

// AppendCanonical appends the compact system's canonical snapshot to
// buf and returns the extended slice. It reads every member's public
// key, deriving those not yet read (keysOfSlab), so it writes the key
// slab as Keys does.
func (cs *CompactSystem) AppendCanonical(buf []byte) []byte {
	var scratch compactCanonScratch
	for i := 0; i < cs.Size(); i++ {
		buf = cs.appendNodeCanonical(buf, uint32(i), &scratch)
	}
	return buf
}

// CanonicalHash returns a 64-bit FNV-1a digest of the canonical
// snapshot, computed node by node so the full serialization is never
// materialized.
func (cs *CompactSystem) CanonicalHash() uint64 {
	h := fnv.New64a()
	var scratch compactCanonScratch
	var buf []byte
	for i := 0; i < cs.Size(); i++ {
		buf = cs.appendNodeCanonical(buf[:0], uint32(i), &scratch)
		h.Write(buf)
	}
	return h.Sum64()
}

type compactCanonScratch struct {
	leaves []uint32
	slots  []overlay.CompactSlot
}

func (cs *CompactSystem) appendNodeCanonical(buf []byte, i uint32, sc *compactCanonScratch) []byte {
	nid := cs.Overlay.ID(i)
	buf = append(buf, nid[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(cs.Router(i)))
	buf = binary.BigEndian.AppendUint32(buf, cs.Overlay.Slab(i))
	p := cs.Overlay.Slab(i)
	buf = append(buf, cs.keysOfSlab(p).Public...)
	buf = append(buf, cs.behaviorBits[p])

	sc.leaves = cs.Overlay.AppendLeafIndices(i, sc.leaves[:0])
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(sc.leaves)))
	for _, j := range sc.leaves {
		buf = binary.BigEndian.AppendUint32(buf, j)
	}
	sc.slots = cs.Overlay.AppendSecureSlots(i, sc.slots[:0])
	buf = appendCompactSlots(buf, sc.slots)
	sc.slots = cs.Overlay.AppendStandardSlots(i, sc.slots[:0])
	buf = appendCompactSlots(buf, sc.slots)
	return buf
}

func appendCompactSlots(buf []byte, slots []overlay.CompactSlot) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(slots)))
	for _, s := range slots {
		buf = append(buf, s.Row, s.Col)
		buf = binary.BigEndian.AppendUint32(buf, s.Peer)
	}
	return buf
}
