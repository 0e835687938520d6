package tomography

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"concilium/internal/metrics"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// ProberHandle names the prober of an archived record in 31 bits, in
// place of its 16-byte identifier. The archive stores the handle its
// caller records under and gives it no meaning: the traffic plane uses
// the prober's slab plus one (core.CompactSystem). The zero handle
// names nobody, so no record carries it.
type ProberHandle uint32

// ProbeRecord is one archived link observation: which host probed, when,
// and the probed status (the paper's p.l_up bit). It is twelve bytes in
// three words — the time's high and low halves, and the prober's handle
// shifted left past the status bit — because the archive is the largest
// structure a probing deployment retains. A record is written by one
// store: splitting the words into parallel arrays would reach the
// same size but touch two cache lines per record.
type ProbeRecord struct {
	atHi, atLo uint32
	proberUp   uint32 // handle<<1 | up
}

// NewProbeRecord packs one observation. The handle must fit 31 bits,
// which every handle Record accepts does.
func NewProbeRecord(at netsim.Time, prober ProberHandle, up bool) ProbeRecord {
	r := ProbeRecord{atHi: uint32(uint64(at) >> 32), atLo: uint32(at), proberUp: uint32(prober) << 1}
	return r.WithUp(up)
}

// At returns the time the prober observed the link.
func (r ProbeRecord) At() netsim.Time { return netsim.Time(int64(r.atHi)<<32 | int64(r.atLo)) }

// Prober returns the prober's handle.
func (r ProbeRecord) Prober() ProberHandle { return ProberHandle(r.proberUp >> 1) }

// Up returns the probed status.
func (r ProbeRecord) Up() bool { return r.proberUp&1 != 0 }

// WithUp returns r with its status set to up.
func (r ProbeRecord) WithUp(up bool) ProbeRecord {
	r.proberUp &^= 1
	if up {
		r.proberUp |= 1
	}
	return r
}

// Archive stores disseminated probe results indexed by link. Every node
// archives the snapshots it receives (§3.2) and queries them by time
// window when computing blame (§3.4). Records for each link must be
// added in non-decreasing time order (simulation time is monotone).
//
// Storage is dense. Link heads are a slice indexed by LinkID, sized
// when the archive is made to the graph's link count — link identifiers
// are dense in [0, NumLinks), and Record rejects any outside it, so a
// received snapshot cannot make the archive grow. Each head carries the
// link's newest time, so the order check never reads record memory. A
// link's records live in a list of chunks drawn from archive-wide
// pools: Record writes into the link's tail chunk, and Prune returns
// whole expired head chunks to their pool, so a retention-bounded
// archive stops allocating once the pools cover its live records.
// Per-chunk links, first times and locations sit in dense arrays
// beside the pools, so window seeks and pruning walk them without
// touching records.
//
// A chunk holds a power of two records, 8 to 256, sized when it is
// taken to between a quarter and an eighth of what its link then
// holds: a link probed a few times per retention period wastes a few
// slots, and a link probed by every sweep reads a blame window in a
// few long contiguous runs. Each size class has its own pool; a pool
// that is at least half free is compacted, so chunks that warm-up or a
// shift in probing left in one class do not pin memory another needs.
//
// Only blame reads the archive, and only after a message fails, so
// Record does not index: it appends each sweep to a staging log — a
// header and four bytes per observation — and the first Span or Window
// after it settles the log, replaying the sweeps oldest first into the
// link lists. A Prune drops staged sweeps older than its cut without
// indexing them. Readers see only the link lists, so staging changes
// no result. The log is written into the pools' blocks, viewed as
// words, and one list of free blocks serves both, so the blocks a
// settle empties become the chunks it fills.
type Archive struct {
	heads []linkHead // by LinkID

	// Chunk c's records sit in pools[class] at loc[c]'s offset. next
	// and prev link a link's chunks oldest to newest; firstAt[c] is
	// the time of c's first record. A pool's free chunks are threaded
	// through next and marked by prev == freeChunk; spare chunks, whose
	// records compaction reclaimed, are threaded through next from
	// spare.
	pools   [numClasses]chunkPool
	loc     []uint32 // class<<classShift | offset in the class's pool
	next    []int32
	prev    []int32
	firstAt []netsim.Time
	spare   int32

	// ages counts live records by time, oldest first, so Prune knows
	// exactly how many records expire, and where the staged ones end,
	// without reading any of them. linked counts the links whose lists
	// hold records.
	ages   []ageCount
	size   int
	linked int

	// The staging log: sweeps Record accepted and no read has settled,
	// oldest first, as words at positions from rd, counted from
	// log[0]'s first word, up to wr words into the last block. An
	// empty log has no blocks and wr == stageLen. Each sweep is a
	// header (handle, time high and low halves, count) and one word
	// per observation, link<<1 | up; times never decrease along the
	// log. base counts the words consumed before log[0], so base plus a
	// position never decreases as the log turns over. freeBlocks holds
	// blocks for the log and the pools to reuse.
	log        []*recordBlock
	rd, wr     int
	base       int
	freeBlocks []*recordBlock
	newest     netsim.Time // newest time Record has accepted
	pending    atomic.Bool // the log holds sweeps
	settleMu   sync.Mutex  // serializes concurrent readers' settles

	records *metrics.Counter
	pruned  *metrics.Counter
	sizeG   *metrics.Gauge
}

const (
	minChunkLog = 3 // 8 records, 96 B
	maxChunkLog = 8 // 256 records, 3 KiB
	numClasses  = maxChunkLog - minChunkLog + 1
	classShift  = 28
	freeChunk   = -2

	blockLog = 12 // pools grow by 4096 records, 48 KiB
	blockLen = 1 << blockLog

	recordBytes = 12
	maxHandle   = 1<<31 - 1 // a record keeps 31 bits of handle
	headBytes   = 32
	// chunkMetaBytes is a chunk's entries in loc, next, prev and firstAt.
	chunkMetaBytes = 4 + 4 + 4 + 8

	stageLen    = blockLen * recordBytes / 4 // words in a block
	blockKeep   = 8                          // free blocks a settle keeps
	sweepHeader = 4                          // words: handle, time high and low halves, count
)

type recordBlock [blockLen]ProbeRecord

// words views b as the staging log's words. A record is three words
// with no padding between or after them, so both views cover the same
// bytes.
func (b *recordBlock) words() *[stageLen]uint32 {
	return (*[stageLen]uint32)(unsafe.Pointer(b))
}

// A record must stay recordBytes long for words to cover its block.
var (
	_ [unsafe.Sizeof(ProbeRecord{}) - recordBytes]struct{}
	_ [recordBytes - unsafe.Sizeof(ProbeRecord{})]struct{}
)

// takeBlock returns a free block, or a new one when none is free.
func (a *Archive) takeBlock() *recordBlock {
	n := len(a.freeBlocks)
	if n == 0 {
		return new(recordBlock)
	}
	b := a.freeBlocks[n-1]
	a.freeBlocks[n-1] = nil
	a.freeBlocks = a.freeBlocks[:n-1]
	return b
}

// trimBlocks hands the free blocks past the first keep to the
// collector.
func (a *Archive) trimBlocks(keep int) {
	if len(a.freeBlocks) > keep {
		clear(a.freeBlocks[keep:])
		a.freeBlocks = a.freeBlocks[:keep]
	}
}

// chunkPool holds the records of one chunk size class.
type chunkPool struct {
	blocks []*recordBlock
	used   uint32 // records handed to chunks, live or free
	free   int32  // first free chunk, -1 when none
	nfree  uint32
}

func (p *chunkPool) records(off uint32, n int) []ProbeRecord {
	i := off & (blockLen - 1)
	return p.blocks[off>>blockLog][i : i+uint32(n) : i+uint32(n)]
}

// linkHead is one link's list of chunks. fill == 0 marks an empty
// link, so the zero head is one; a non-empty link's tail chunk holds
// fill records and every other chunk is full.
type linkHead struct {
	last       netsim.Time // newest record's time
	cut        netsim.Time // records older than cut are pruned
	head, tail int32       // oldest and newest chunk
	fill       int32
	n          int32 // records held in the link's chunks, pruned or not
}

// ageCount is the census entry of one time: n live records, and the
// log position (base included) just past the newest sweep staged at it.
type ageCount struct {
	at  netsim.Time
	n   int
	end int
}

// NewArchive creates an empty archive for links in [0, numLinks).
func NewArchive(numLinks int) *Archive {
	a := &Archive{heads: make([]linkHead, numLinks), spare: -1, wr: stageLen, newest: math.MinInt64}
	for k := range a.pools {
		a.pools[k].free = -1
	}
	return a
}

// SetMetrics publishes the archive's record/prune counters and size
// gauge into reg (names "tomography/archive_*"). A nil registry
// disables publication.
func (a *Archive) SetMetrics(reg *metrics.Registry) {
	a.records = reg.Counter("tomography/archive_records")
	a.pruned = reg.Counter("tomography/archive_pruned")
	a.sizeG = reg.Gauge("tomography/archive_size")
}

// Record archives one prober's observations taken at time at under
// handle h. A call is all or nothing: the zero handle, a handle wider
// than a record's 31 bits, a link outside the archive's range and an
// observation older than its link's newest record are errors, and a
// call that returns one archives none of obs. While at is no older
// than every time accepted so far, no link can hold a newer record, so
// the order check is skipped; an older at settles the staged sweeps
// and checks each link.
func (a *Archive) Record(h ProberHandle, at netsim.Time, obs []LinkObservation) error {
	if h == 0 || h > maxHandle {
		return fmt.Errorf("tomography: prober handle %d outside [1, %d]", h, maxHandle)
	}
	older := at < a.newest
	if older {
		a.settle()
	}
	if len(obs) > 0 {
		if err := a.stage(h, at, obs, older); err != nil {
			return err
		}
		a.newest = max(a.newest, at)
		a.countAge(at, len(obs))
		a.size += len(obs)
	}
	a.records.Add(uint64(len(obs)))
	a.sizeG.Set(int64(a.size))
	return nil
}

// stage appends one sweep to the staging log, checking each
// observation as it copies it: a link outside the archive's range, or,
// when older, a link holding a newer record, rolls the log back to
// where the call found it and is an error.
func (a *Archive) stage(h ProberHandle, at netsim.Time, obs []LinkObservation, older bool) error {
	blocks, wr, free, logCap := len(a.log), a.wr, len(a.freeBlocks), cap(a.log)
	for _, w := range [sweepHeader]uint32{uint32(h), uint32(uint64(at) >> 32), uint32(at), uint32(len(obs))} {
		a.stageRoom()[0] = w
		a.wr++
	}
	limit := uint(len(a.heads))
	for len(obs) > 0 {
		room := a.stageRoom()
		n := min(len(room), len(obs))
		room = room[:n]
		for i, o := range obs[:n] {
			if uint(o.Link) >= limit || older {
				if err := a.checkLink(o.Link, at); err != nil {
					a.unstage(blocks, wr, free, logCap)
					return err
				}
			}
			var up uint32
			if o.Up {
				up = 1
			}
			room[i] = uint32(o.Link)<<1 | up
		}
		a.wr += n
		obs = obs[n:]
	}
	a.pending.Store(true)
	return nil
}

// checkLink reports whether link l can take a record at time at: it must
// be inside the archive's range and hold nothing newer.
func (a *Archive) checkLink(l topology.LinkID, at netsim.Time) error {
	if uint(l) >= uint(len(a.heads)) {
		return fmt.Errorf("tomography: link %d outside [0, %d)", l, len(a.heads))
	}
	if hd := &a.heads[l]; hd.fill != 0 && hd.last > at {
		return fmt.Errorf("tomography: out-of-order record for link %d (%v after %v)", l, at, hd.last)
	}
	return nil
}

// unstage rolls the log back to blocks blocks, the last written to wr
// words, after a failed stage. The blocks the call took from the free
// list go back to it and those it made are dropped, and the log keeps
// the capacity it had, so the archive's footprint is as before.
func (a *Archive) unstage(blocks, wr, free, logCap int) {
	taken := a.log[blocks:]
	a.freeBlocks = append(a.freeBlocks, taken[:free-len(a.freeBlocks)]...)
	clear(taken)
	a.log = a.log[:blocks:logCap]
	a.wr = wr
}

// stageRoom returns the unwritten words of the log's last block,
// adding a block when it is full.
func (a *Archive) stageRoom() []uint32 {
	if a.wr == stageLen {
		a.log = append(a.log, a.takeBlock())
		a.wr = 0
	}
	return a.log[len(a.log)-1].words()[a.wr:]
}

func (a *Archive) logEnd() int { return (len(a.log)-1)*stageLen + a.wr }

func (a *Archive) logWord(p int) uint32 { return a.log[p/stageLen].words()[p%stageLen] }

// sweepAt decodes the header of the staged sweep at position p.
func (a *Archive) sweepAt(p int) (h ProberHandle, at netsim.Time, n int) {
	at = netsim.Time(int64(a.logWord(p+1))<<32 | int64(a.logWord(p+2)))
	return ProberHandle(a.logWord(p)), at, int(a.logWord(p + 3))
}

// settle indexes the staged sweeps. Readers call it concurrently, so
// the first to take the lock replays the log and the rest find it
// empty; pending is cleared only once the replay is done.
func (a *Archive) settle() {
	a.settleMu.Lock()
	defer a.settleMu.Unlock()
	if !a.pending.Load() {
		return
	}
	end := a.logEnd()
	for p := a.rd; p < end; {
		h, at, n := a.sweepAt(p)
		p += sweepHeader
		for n > 0 {
			off := p % stageLen
			run := a.log[p/stageLen].words()[off:min(off+n, stageLen)]
			a.append(h, at, run)
			p += len(run)
			n -= len(run)
		}
		if p >= stageLen && p < end {
			// Free the replayed blocks for the chunks still to come.
			a.consume(p)
			end -= p - a.rd
			p = a.rd
		}
	}
	a.consume(end)
	a.trimBlocks(blockKeep)
}

// consume discards the log's words before position p and frees the
// blocks it empties. A log consumed to its end holds no blocks and no
// pending sweeps.
func (a *Archive) consume(p int) {
	k := p / stageLen
	if p == a.logEnd() {
		k = len(a.log)
	}
	a.freeBlocks = append(a.freeBlocks, a.log[:k]...)
	n := copy(a.log, a.log[k:])
	clear(a.log[n:])
	a.log = a.log[:n]
	a.rd = p - k*stageLen
	a.base += k * stageLen
	if n == 0 {
		a.rd, a.wr = 0, stageLen
		a.pending.Store(false)
	}
}

// append writes a run of one staged sweep's observations, which
// Record has checked, into their links' tail chunks.
func (a *Archive) append(h ProberHandle, at netsim.Time, obs []uint32) {
	rec := NewProbeRecord(at, h, false)
	for _, o := range obs {
		hd := &a.heads[o>>1]
		switch {
		case hd.fill == 0:
			c := a.newChunk(0, at)
			*hd = linkHead{cut: at, head: c, tail: c}
			a.linked++
		case hd.fill == a.chunkLen(hd.tail):
			c := a.newChunk(hd.n, at)
			a.next[hd.tail], a.prev[c] = c, hd.tail
			hd.tail, hd.fill = c, 0
		}
		r := rec
		r.proberUp |= o & 1
		a.chunk(hd.tail, hd.fill+1)[hd.fill] = r
		hd.fill++
		hd.n++
		hd.last = at
	}
}

func (a *Archive) chunkLen(c int32) int32 { return 1 << (a.loc[c]>>classShift + minChunkLog) }

// chunk returns chunk c's first n records.
func (a *Archive) chunk(c, n int32) []ProbeRecord {
	l := a.loc[c]
	return a.pools[l>>classShift].records(l&(1<<classShift-1), int(n))
}

// newChunk takes a chunk for a link holding held records from the
// pool of its size class, growing the pool when it has none free.
func (a *Archive) newChunk(held int32, first netsim.Time) int32 {
	k := min(max(bits.Len32(uint32(held))-3, minChunkLog), maxChunkLog) - minChunkLog
	p := &a.pools[k]
	c := p.free
	if c >= 0 {
		p.free = a.next[c]
		p.nfree--
	} else {
		if p.used == uint32(len(p.blocks))*blockLen {
			if p.used == 1<<classShift {
				panic("tomography: archive size class holds 2^28 records")
			}
			p.blocks = append(p.blocks, a.takeBlock())
		}
		if c = a.spare; c >= 0 {
			a.spare = a.next[c]
		} else {
			c = int32(len(a.loc))
			a.loc = append(a.loc, 0)
			a.next = append(a.next, 0)
			a.prev = append(a.prev, 0)
			a.firstAt = append(a.firstAt, 0)
		}
		a.loc[c] = uint32(k)<<classShift | p.used
		p.used += 1 << (k + minChunkLog)
	}
	a.prev[c] = -1
	a.firstAt[c] = first
	return c
}

// release returns chunk c to its pool.
func (a *Archive) release(c int32) {
	p := &a.pools[a.loc[c]>>classShift]
	a.next[c], a.prev[c] = p.free, freeChunk
	p.free = c
	p.nfree++
}

// compact moves class k's live chunks into the lowest offsets of its
// pool, each into a free chunk's place, then drops the pool's free
// chunks and the blocks they emptied. Chunk numbers are unchanged, so
// no link is rewritten; the free chunks become spare, and take new
// records when they are next used.
func (a *Archive) compact(k int) {
	p := &a.pools[k]
	lg := uint32(k + minChunkLog)
	limit := (p.used>>lg - p.nfree) << lg
	hole := p.free
	for c := range a.loc {
		l := a.loc[c]
		if l>>classShift != uint32(k) || a.prev[c] == freeChunk || l&(1<<classShift-1) < limit {
			continue
		}
		for a.loc[hole]&(1<<classShift-1) >= limit {
			hole = a.next[hole]
		}
		copy(a.chunk(hole, 1<<lg), a.chunk(int32(c), 1<<lg))
		a.loc[c] = a.loc[hole]
		hole = a.next[hole]
	}
	for c := p.free; c >= 0; {
		nx := a.next[c]
		a.next[c], a.spare = a.spare, c
		c = nx
	}
	keep := int((limit + blockLen - 1) >> blockLog)
	a.freeBlocks = append(a.freeBlocks, p.blocks[keep:]...)
	clear(p.blocks[keep:])
	*p = chunkPool{blocks: p.blocks[:keep], used: limit, free: -1}
}

// countAge adds the n records of the sweep just staged at time at to
// the age census. The log's end is the newest position yet, so it is
// where the time's staged sweeps now end.
func (a *Archive) countAge(at netsim.Time, n int) {
	k, end := len(a.ages), a.base+a.logEnd()
	switch {
	case k > 0 && a.ages[k-1].at == at:
		a.ages[k-1].n += n
		a.ages[k-1].end = end
	case k == 0 || a.ages[k-1].at < at:
		a.ages = append(a.ages, ageCount{at, n, end})
	default:
		i := sort.Search(k, func(i int) bool { return a.ages[i].at >= at })
		if a.ages[i].at == at {
			a.ages[i].n += n
			a.ages[i].end = end
			return
		}
		a.ages = append(a.ages, ageCount{})
		copy(a.ages[i+1:], a.ages[i:])
		a.ages[i] = ageCount{at, n, end}
	}
}

// Span returns an iterator over the records for link within
// [from, to], oldest first. It reads the archive's storage in place
// and allocates nothing; it is valid only until the next Record or
// Prune. Any number of spans may read an archive concurrently while
// nothing writes it: the first of them settles any staged sweeps under
// the archive's lock, and the others wait for it.
func (a *Archive) Span(link topology.LinkID, from, to netsim.Time) Span {
	if uint(link) >= uint(len(a.heads)) {
		return Span{chunk: -1}
	}
	if a.pending.Load() {
		a.settle()
	}
	hd := &a.heads[link]
	from = max(from, hd.cut)
	if hd.fill == 0 || from > to || hd.last < from {
		return Span{chunk: -1}
	}
	// The span starts in the newest chunk whose first record is older
	// than from, or in the head chunk when none is.
	c := hd.tail
	for c != hd.head && a.firstAt[c] >= from {
		c = a.prev[c]
	}
	s := Span{a: a, chunk: c, to: to, tail: hd.tail, fill: hd.fill}
	if a.firstAt[c] < from {
		recs := s.chunkRecords(c)
		if s.lo = lowerBound(recs, from); s.lo == len(recs) {
			// hd.last >= from, so a newer chunk exists.
			s.chunk, s.lo = a.next[c], 0
		}
	}
	return s
}

// Span iterates one link's records within a time window as contiguous
// runs; see Archive.Span.
type Span struct {
	a     *Archive
	chunk int32 // chunk of the next run; -1 once exhausted
	lo    int   // the next run's first record within chunk
	to    netsim.Time
	tail  int32
	fill  int32
}

// Next returns the span's next run of records, oldest first, or nil
// when the span is exhausted. Runs are never empty, and a run aliases
// the archive's storage.
func (s *Span) Next() []ProbeRecord {
	c := s.chunk
	if c < 0 {
		return nil
	}
	recs := s.chunkRecords(c)[s.lo:]
	if c != s.tail && s.a.firstAt[s.a.next[c]] <= s.to {
		s.chunk, s.lo = s.a.next[c], 0
		return recs
	}
	s.chunk = -1
	if recs[len(recs)-1].At() > s.to {
		recs = recs[:lowerBound(recs, s.to+1)]
	}
	if len(recs) == 0 {
		return nil
	}
	return recs
}

func (s *Span) chunkRecords(c int32) []ProbeRecord {
	if c == s.tail {
		return s.a.chunk(c, s.fill)
	}
	return s.a.chunk(c, s.a.chunkLen(c))
}

// lowerBound returns the index of the first record at or after t.
func lowerBound(recs []ProbeRecord, t netsim.Time) int {
	lo, hi := 0, len(recs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if recs[m].At() < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Window returns a copy of the probe records for link within
// [from, to], oldest first. Hot readers iterate Span instead, which
// copies nothing.
func (a *Archive) Window(link topology.LinkID, from, to netsim.Time) []ProbeRecord {
	var out []ProbeRecord
	s := a.Span(link, from, to)
	for run := s.Next(); run != nil; run = s.Next() {
		out = append(out, run...)
	}
	return out
}

// Prune discards records older than before, bounding archive growth over
// long simulations. The age census says how many records expire and
// where the expired staged sweeps end: those are dropped unindexed,
// since times never decrease along the log. When some link holds
// records, the pass over the link heads then raises each link's cut,
// which hides its expired records from every Span at once, and hands
// the pool every chunk that holds nothing newer than before. A link's
// head chunk may keep expired records below its cut until a later
// Prune frees it. The archive keeps as many free blocks as the log
// holds, since the sweeps to come refill what the prune freed. Prune
// invalidates outstanding spans.
func (a *Archive) Prune(before netsim.Time) {
	var dropped, k, cut int
	for k < len(a.ages) && a.ages[k].at < before {
		dropped += a.ages[k].n
		cut = max(cut, a.ages[k].end)
		k++
	}
	if dropped == 0 {
		return
	}
	a.ages = a.ages[:copy(a.ages, a.ages[k:])]
	a.consume(max(cut-a.base, a.rd))
	for i := 0; a.linked > 0 && i < len(a.heads); i++ {
		hd := &a.heads[i]
		if hd.fill == 0 || hd.cut >= before {
			continue
		}
		if hd.last < before {
			for c := hd.head; c != hd.tail; {
				nx := a.next[c]
				a.release(c)
				c = nx
			}
			a.release(hd.tail)
			*hd = linkHead{}
			a.linked--
			continue
		}
		hd.cut = before
		for c := hd.head; c != hd.tail && a.firstAt[a.next[c]] < before; c = hd.head {
			hd.head = a.next[c]
			hd.n -= a.chunkLen(c)
			a.release(c)
		}
	}
	for k := range a.pools {
		p := &a.pools[k]
		if lg := k + minChunkLog; p.nfree<<lg >= 2*blockLen && 2*p.nfree >= p.used>>lg {
			a.compact(k)
		}
	}
	a.trimBlocks(max(blockKeep, len(a.log)))
	a.size -= dropped
	a.pruned.Add(uint64(dropped))
	a.sizeG.Set(int64(a.size))
}

// Size returns the total number of archived records.
func (a *Archive) Size() int { return a.size }

// Footprint estimates the archive's resident bytes: the chunk pools
// with their per-chunk arrays, the link heads, the age census and the
// staging log with its free blocks. It does not depend on how many
// distinct probers recorded.
func (a *Archive) Footprint() int64 {
	var total int64
	blocks := len(a.log) + len(a.freeBlocks)
	for k := range a.pools {
		blocks += len(a.pools[k].blocks)
	}
	total += int64(blocks) * blockLen * recordBytes
	total += int64(cap(a.log)+cap(a.freeBlocks)) * 8
	total += int64(cap(a.loc)) * chunkMetaBytes
	total += int64(cap(a.heads)) * headBytes
	total += int64(cap(a.ages)) * 24
	return total
}
