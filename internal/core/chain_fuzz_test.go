package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// FuzzRevisionChainVerify mutates a valid three-link chain (A→B, B→C,
// C→D, §3.5) the way a host that relays it might, and holds Verify to
// one property: it rejects the result, or the result is a contiguous
// run of the original links in order, each equal to its original field
// by field (so its payload and signature bytes are the original's too).
// A prefix is the chain before later revisions arrived and a suffix is
// the downstream hosts' own chain; anything else must fail.
//
// The input is a list of mutations, four bytes each (missing bytes read
// as zero): a kind, the link it applies to (mod the chain's length),
// and two arguments a and b. Kinds, mod 10:
//
//	0  flip bit b%8 of signature byte a%len
//	1  flip bit b%32 of evidence entry a's link
//	2  flip bit b%64 of evidence entry a's probe count (bits ≥ 32 wrap
//	   the signed 32-bit field; bit 63 makes it negative)
//	3  flip bit b%64 of Blame
//	4  flip bit b%64 of MsgID (a odd: the commitment's MsgID)
//	5  flip bit b%8 of byte a%16 of the commitment's Dest
//	6  flip bit b%63 of At (a odd: the commitment's At)
//	7  drop the link
//	8  duplicate the link in place
//	9  swap the link with link a
func FuzzRevisionChainVerify(f *testing.F) {
	ids, keys := newIdentities(4, rand.New(rand.NewPCG(151, 157)))
	orig := buildChain(f, ids)
	if err := (&RevisionChain{Links: orig}).Verify(keys, 0.4); err != nil {
		f.Fatalf("unmutated chain: %v", err)
	}

	f.Add([]byte{})                                   // no mutation: verifies
	f.Add([]byte{0, 1, 5, 3})                         // signature bit
	f.Add([]byte{1, 0, 0, 2})                         // evidence link
	f.Add([]byte{2, 2, 1, 32})                        // probe count wrapped by 2^32
	f.Add([]byte{2, 1, 0, 63})                        // negative probe count
	f.Add([]byte{3, 1, 0, 1})                         // blame's lowest bit
	f.Add([]byte{4, 0, 0, 0})                         // accusation MsgID
	f.Add([]byte{4, 2, 1, 9})                         // commitment MsgID
	f.Add([]byte{5, 1, 3, 4})                         // commitment Dest
	f.Add([]byte{6, 2, 0, 20})                        // accusation At
	f.Add([]byte{6, 0, 1, 20})                        // commitment At
	f.Add([]byte{7, 0, 0, 0})                         // drop the first link: a suffix verifies
	f.Add([]byte{7, 1, 0, 0})                         // drop the middle link
	f.Add([]byte{7, 2, 0, 0})                         // drop the last link: a prefix verifies
	f.Add([]byte{8, 1, 0, 0})                         // duplicate a link
	f.Add([]byte{9, 0, 2, 0})                         // swap two links
	f.Add([]byte{7, 0, 0, 0, 7, 0, 0, 0, 7, 0, 0, 0}) // drop every link

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		links := make([]Accusation, len(orig))
		origin := make([]int, len(orig)) // links[k] derives from orig[origin[k]]
		for k := range orig {
			links[k] = cloneAccusation(orig[k])
			origin[k] = k
		}
		for len(data) > 0 && len(links) > 0 {
			kind, k, a, b := next()%10, int(next())%len(links), next(), next()
			l := &links[k]
			switch kind {
			case 0:
				l.Signature[int(a)%len(l.Signature)] ^= 1 << (b % 8)
			case 1:
				l.Evidence[int(a)%len(l.Evidence)].Link ^= 1 << (b % 32)
			case 2:
				l.Evidence[int(a)%len(l.Evidence)].Probes ^= 1 << (b % 64)
			case 3:
				l.Blame = math.Float64frombits(math.Float64bits(l.Blame) ^ 1<<(b%64))
			case 4:
				if a&1 != 0 {
					l.Commitment.MsgID ^= 1 << (b % 64)
				} else {
					l.MsgID ^= 1 << (b % 64)
				}
			case 5:
				l.Commitment.Dest[a%16] ^= 1 << (b % 8)
			case 6:
				if a&1 != 0 {
					l.Commitment.At ^= 1 << (b % 63)
				} else {
					l.At ^= 1 << (b % 63)
				}
			case 7:
				links = append(links[:k], links[k+1:]...)
				origin = append(origin[:k], origin[k+1:]...)
			case 8:
				links = append(links[:k+1], links[k:]...)
				links[k+1] = cloneAccusation(links[k])
				origin = append(origin[:k+1], origin[k:]...)
			case 9:
				j := int(a) % len(links)
				links[k], links[j] = links[j], links[k]
				origin[k], origin[j] = origin[j], origin[k]
			}
		}

		if err := (&RevisionChain{Links: links}).Verify(keys, 0.4); err != nil {
			return
		}
		for k := range links {
			if k > 0 && origin[k] != origin[k-1]+1 {
				t.Fatalf("verified chain is not a run of the original: links from %v", origin)
			}
			if !reflect.DeepEqual(links[k], orig[origin[k]]) {
				t.Fatalf("verified link %d differs from original link %d:\n got %+v\nwant %+v", k, origin[k], links[k], orig[origin[k]])
			}
		}
	})
}

// cloneAccusation copies a so that mutating the copy's slices leaves a
// untouched.
func cloneAccusation(a Accusation) Accusation {
	a.Path = append(a.Path[:0:0], a.Path...)
	a.Evidence = append(a.Evidence[:0:0], a.Evidence...)
	a.Signature = append(a.Signature[:0:0], a.Signature...)
	a.Commitment.Signature = append(a.Commitment.Signature[:0:0], a.Commitment.Signature...)
	return a
}
