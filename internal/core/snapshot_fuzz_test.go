package core

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/id"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// FuzzSignedSnapshot drives the plane's snapshot admission with what a
// hostile prober authors. A TestConfig system probes for a minute and
// loses one member; then the input spells one signed snapshot:
//
//	byte 0     prober: %3 = 0 a member (byte 1 picks which), 1 the
//	           departed node, 2 a stranger with keys of its own
//	bytes 2–3  the snapshot time, int16 seconds from now
//	byte 4     %9 observations, each three bytes: an int16 link (so
//	           negative links and links ≥ NumLinks occur) and a status
//	byte 5+    a signature bit to flip (0: none), then a payload field
//	           to flip after signing (%5: none, time, prober, an
//	           observation's status, an observation's link)
//
// Missing bytes read as zero. A snapshot must be archived exactly when
// it verifies for a current member and every observation fits the
// archive — a link in [0, NumLinks), no older than its link's newest
// record — and then all of it, under that member's slab handle;
// otherwise nothing moves. Counters never move.
func FuzzSignedSnapshot(f *testing.F) {
	obs := func(link int16, up byte) []byte { return []byte{byte(uint16(link) >> 8), byte(link), up} }
	valid := append([]byte{0, 5, 0, 1, 3}, append(append(obs(1, 1), obs(2, 0)...), obs(1, 0)...)...)
	f.Add(valid)
	f.Add(append([]byte{1, 0, 0, 1, 1}, obs(1, 1)...))                           // departed signer
	f.Add(append([]byte{2, 0, 0, 1, 1}, obs(1, 1)...))                           // stranger
	f.Add(append(append([]byte{0, 3, 0, 1, 1}, obs(1, 1)...), 9))                // flipped signature bit
	f.Add(append(append([]byte{0, 3, 0, 1, 1}, obs(1, 1)...), 0, 3))             // flipped status after signing
	f.Add(append([]byte{0, 7, 0, 1, 2}, append(obs(1, 1), obs(-1, 0)...)...))    // negative link
	f.Add(append([]byte{0, 7, 0, 1, 2}, append(obs(2, 1), obs(30000, 0)...)...)) // link past NumLinks
	f.Add(append([]byte{0, 2, 0xff, 0xc4, 1}, obs(1, 1)...))                     // a minute back
	f.Add([]byte{0, 1, 0, 0, 0})                                                 // no observations
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cs := buildTestCompactSystem(t, nil)
		if err := cs.StartProbing(); err != nil {
			t.Fatal(err)
		}
		cs.Run(time.Minute)
		members := cs.AliveIDs()
		departed := members[len(members)/2]
		if err := cs.FailNode(departed); err != nil {
			t.Fatal(err)
		}
		members = cs.AliveIDs()

		kind, pick := next()%3, int(next())
		snap := &Snapshot{
			At: cs.Sim.Now().Add(time.Duration(int16(binary.BigEndian.Uint16([]byte{next(), next()}))) * time.Second),
		}
		for n := next() % 9; n > 0; n-- {
			link := topology.LinkID(int16(binary.BigEndian.Uint16([]byte{next(), next()})))
			snap.Observations = append(snap.Observations, tomography.LinkObservation{Link: link, Up: next()&1 != 0})
		}
		var keys sigcrypto.KeyPair
		switch kind {
		case 0:
			snap.Prober = members[pick%len(members)]
			i, _ := cs.Overlay.IndexOf(snap.Prober)
			keys = cs.Keys(i)
		case 1:
			snap.Prober = departed
			keys = cs.keysOfSlab(cs.departedSlab[departed])
		default:
			r := rand.New(rand.NewPCG(uint64(pick), 0x5eed))
			snap.Prober = id.Random(r)
			keys = sigcrypto.KeyPairFromSeed(sigcrypto.SeedFromRand(r))
		}
		snap.Sign(keys)
		tampered := false
		if b := next(); b != 0 {
			snap.Signature[int(b-1)%len(snap.Signature)] ^= 1 << (b % 8)
			tampered = true
		}
		switch b := next(); b % 5 {
		case 1:
			snap.At ^= 1 << (b % 63)
			tampered = true
		case 2:
			snap.Prober[b%id.Bytes] ^= 1 << (b % 8)
			tampered = true
		case 3, 4:
			if n := len(snap.Observations); n > 0 {
				o := &snap.Observations[int(b)%n]
				if b%5 == 3 {
					o.Up = !o.Up
				} else {
					o.Link ^= 1 << (b % 31)
				}
				tampered = true
			}
		}

		links := cs.Topo.NumLinks()
		before := make([][]tomography.ProbeRecord, links)
		for l := range before {
			before[l] = cs.Archive.Window(topology.LinkID(l), math.MinInt64, math.MaxInt64)
		}
		size, counters := cs.Archive.Size(), cs.Counters
		_, member := cs.Overlay.IndexOf(snap.Prober)
		fits := true
		for _, o := range snap.Observations {
			if o.Link < 0 || int(o.Link) >= links {
				fits = false
			} else if recs := before[o.Link]; len(recs) > 0 && recs[len(recs)-1].At() > snap.At {
				fits = false
			}
		}
		admit := member && !tampered && fits

		err := cs.admitSnapshot(snap)
		if (err == nil) != admit {
			t.Fatalf("admitSnapshot(kind %d, member %v, tampered %v, fits %v) = %v", kind, member, tampered, fits, err)
		}
		if cs.Counters != counters {
			t.Fatalf("admission moved Counters: %+v → %+v", counters, cs.Counters)
		}
		want := before
		var h tomography.ProberHandle
		if admit {
			h = cs.ProberHandle(snap.Prober)
			if i, _ := cs.Overlay.IndexOf(snap.Prober); h != tomography.ProberHandle(cs.Overlay.Slab(i)+1) {
				t.Fatalf("member %s has handle %d, slab %d", snap.Prober.Short(), h, cs.Overlay.Slab(i))
			}
			want = make([][]tomography.ProbeRecord, links)
			for l := range want {
				want[l] = append([]tomography.ProbeRecord(nil), before[l]...)
			}
			for _, o := range snap.Observations {
				want[o.Link] = append(want[o.Link], tomography.NewProbeRecord(snap.At, h, o.Up))
			}
			size += len(snap.Observations)
		}
		if cs.Archive.Size() != size {
			t.Fatalf("archive holds %d records, want %d (admitted %v)", cs.Archive.Size(), size, admit)
		}
		for l := range want {
			got := cs.Archive.Window(topology.LinkID(l), math.MinInt64, math.MaxInt64)
			if len(got) != len(want[l]) {
				t.Fatalf("link %d holds %d records, want %d (admitted %v under handle %d)", l, len(got), len(want[l]), admit, h)
			}
			for k := range got {
				if got[k] != want[l][k] {
					t.Fatalf("link %d record %d = %+v, want %+v", l, k, got[k], want[l][k])
				}
			}
		}
	})
}
