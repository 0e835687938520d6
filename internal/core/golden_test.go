package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"concilium/internal/id"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// Golden digests of the traffic plane's observable outputs. The
// pointer-per-node System these tests once compared against report for
// report is gone; its outputs at each test's seeds live on as the
// constants below, and the compact plane must reproduce them bit for
// bit. A digest folds every field a report carries — routes, outcomes,
// fault points, verdicts with their exact blame bits, and the signature
// bytes of each accusation-chain link — so any drift in routing, rng
// consumption, blame arithmetic or signing changes it.

// digest is an FNV-1a accumulator over fixed-width big-endian fields.
type digest struct {
	h   hash.Hash64
	buf []byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

func (d *digest) u64(v uint64) { d.buf = binary.BigEndian.AppendUint64(d.buf, v); d.flush() }

func (d *digest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d *digest) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digest) id(x id.ID) { d.h.Write(x[:]) }

func (d *digest) str(s string) { d.bytes([]byte(s)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }

func (d *digest) verdicts(vs []Verdict) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.id(v.Judged)
		d.u64(uint64(v.At))
		d.u64(math.Float64bits(v.Blame))
		d.flag(v.Guilty)
	}
}

// report folds one DeliveryReport.
func (d *digest) report(r *DeliveryReport) {
	d.u64(r.MsgID)
	d.u64(uint64(len(r.Route)))
	for _, x := range r.Route {
		d.id(x)
	}
	d.flag(r.Delivered)
	d.flag(r.AckReceived)
	d.u64(uint64(r.Kind))
	d.id(r.DroppedBy)
	d.u64(uint64(r.BrokenLink))
	d.flag(r.ChainUnavailable)
	d.verdicts(r.Verdicts)
	d.flag(r.Chain != nil)
	if r.Chain != nil {
		d.u64(uint64(len(r.Chain.Links)))
		for i := range r.Chain.Links {
			d.bytes(r.Chain.Links[i].Signature)
			d.bytes(r.Chain.Links[i].Commitment.Signature)
		}
	}
	d.id(r.Culprit)
	d.flag(r.NetworkBlamed)
}

// counters folds every SystemCounters field.
func (d *digest) counters(c SystemCounters) {
	for _, v := range []uint64{
		c.ArchiveRecordErrors, c.ProbeRescheduleErrors, c.ProbesLost,
		c.ProbesSuppressed, c.GhostProbesStopped, c.ChurnDrops, c.ChainsUnavailable,
	} {
		d.u64(v)
	}
}

// archive folds every record the archive holds, link by link in
// identifier order up to links, in archive order within a link, each
// under its prober's identifier as names resolves it.
func (d *digest) archive(a *tomography.Archive, names Probers, links int) {
	d.u64(uint64(a.Size()))
	for l := 0; l < links; l++ {
		recs := a.Window(topology.LinkID(l), math.MinInt64, math.MaxInt64)
		d.u64(uint64(len(recs)))
		for _, r := range recs {
			d.id(names.ProberID(r.Prober()))
			d.u64(uint64(r.At()))
			d.flag(r.Up())
		}
	}
}

// tree folds a tomography tree: root, root router, and every leaf with
// its path.
func (d *digest) tree(tr *tomography.Tree) {
	d.id(tr.Root)
	d.u64(uint64(tr.RootRouter))
	d.u64(uint64(len(tr.Leaves)))
	for i := range tr.Leaves {
		leaf := &tr.Leaves[i]
		d.id(leaf.Node)
		d.u64(uint64(leaf.Router))
		d.u64(uint64(len(leaf.Path)))
		for _, l := range leaf.Path {
			d.u64(uint64(l))
		}
	}
}

// requireGolden fails the test when got differs from the pinned digest.
func requireGolden(t *testing.T, what string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Fatalf("%s digest %#016x, pinned %#016x", what, got, want)
	}
}
