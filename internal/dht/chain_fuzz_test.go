package dht

import (
	"bytes"
	"encoding/gob"
	"math/rand/v2"
	"reflect"
	"testing"

	"concilium/internal/core"
)

// FuzzStoredChain models a Byzantine replica: it stores arbitrary bytes
// under one host's key, and FetchChecked must neither panic nor hand
// back anything the fixture's accusers did not sign. Every chain it
// returns must be non-empty and connected, verify, blame the key's
// host, and consist link for link of accusations the fixture signed,
// equal field by field — Probes included, so an encoding the signature
// does not pin down shows up as a mismatch.
//
// The seeds are a valid chain's gob, a chain spliced from two valid
// chains (A→B on message 1, X→Y on message 7), and a valid chain with
// one probe count wrapped by 2^32. The input's first byte picks the
// host whose key the bytes are stored under.
func FuzzStoredChain(f *testing.F) {
	fx, ids := newRepoFixture(f, rand.New(rand.NewPCG(61, 62)), 6)
	valid := fx.chain(ids[0:3], 1, 1000) // A→B→C
	other := fx.chain(ids[3:5], 7, 1000) // X→Y
	signed := append(append([]core.Accusation(nil), valid.Links...), other.Links...)

	spliced := &core.RevisionChain{Links: []core.Accusation{valid.Links[0], other.Links[0]}}
	wrapped := &core.RevisionChain{Links: append([]core.Accusation(nil), valid.Links...)}
	last := &wrapped.Links[len(wrapped.Links)-1]
	last.Evidence = append([]core.LinkConfidence(nil), last.Evidence...)
	last.Evidence[0].Probes += 1 << 32

	encode := func(c *core.RevisionChain) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(uint8(2), encode(valid))
	f.Add(uint8(4), encode(spliced))
	f.Add(uint8(2), encode(wrapped))

	f.Fuzz(func(t *testing.T, host uint8, raw []byte) {
		key := ids[int(host)%len(ids)]
		repo, _ := fx.repo(t, rand.New(rand.NewPCG(63, 64)), RepoLimits{})
		if repo.store.Put(key, raw) != nil {
			return // the store refuses the value (empty), so no replica holds it
		}
		chains, _, err := repo.FetchChecked(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chains {
			if _, err := core.NewRevisionChain(c.Links); err != nil {
				t.Fatalf("fetched chain breaks structure: %v", err)
			}
			if err := c.Verify(fx.keys(), 0.4); err != nil {
				t.Fatalf("fetched chain does not verify: %v", err)
			}
			if c.Culprit() != key {
				t.Fatalf("chain stored under %s blames %s", key.Short(), c.Culprit().Short())
			}
			for i := range c.Links {
				if !signedLink(signed, &c.Links[i]) {
					t.Fatalf("link %d was never signed in this form: %+v", i, c.Links[i])
				}
			}
		}
	})
}

// signedLink reports whether a equals, field by field, one of the
// signed accusations.
func signedLink(signed []core.Accusation, a *core.Accusation) bool {
	for i := range signed {
		if reflect.DeepEqual(&signed[i], a) {
			return true
		}
	}
	return false
}
