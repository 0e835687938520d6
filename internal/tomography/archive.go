package tomography

import (
	"fmt"
	"sort"

	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// ProberHandle names a prober within one Archive: the archive interns
// each prober's identifier on its first Record and stores the 4-byte
// handle in every record instead of the 16-byte identifier. Handles are
// meaningful only to the archive that issued them; the zero handle names
// nobody, so no record carries it.
type ProberHandle uint32

// ProbeRecord is one archived link observation: which host probed, when,
// and the probed status (the paper's p.l_up bit). Sixteen bytes — the
// archive is the largest structure a probing deployment retains.
type ProbeRecord struct {
	At     netsim.Time
	Prober ProberHandle // resolve with Archive.ProberID
	Up     bool
}

// Archive stores disseminated probe results indexed by link. Every node
// archives the snapshots it receives (§3.2) and queries them by time
// window when computing blame (§3.4). Records for each link must be
// added in non-decreasing time order (simulation time is monotone),
// which keeps window queries logarithmic.
type Archive struct {
	byLink map[topology.LinkID][]ProbeRecord
	size   int

	// The intern table: probers[h-1] is handle h's identifier. It only
	// grows — a handle stays resolvable after Prune has dropped the
	// prober's last record and after the prober has left the overlay,
	// because views and copies of records may outlive both. That is
	// ~70 B per identifier that ever recorded, the same leak class as a
	// departed node's slab row.
	probers  []id.ID
	handleOf map[id.ID]ProberHandle

	records *metrics.Counter
	pruned  *metrics.Counter
	sizeG   *metrics.Gauge
}

// NewArchive creates an empty archive.
func NewArchive() *Archive {
	return &Archive{
		byLink:   make(map[topology.LinkID][]ProbeRecord),
		handleOf: make(map[id.ID]ProberHandle),
	}
}

// Intern returns prober's handle, issuing one on first sight.
func (a *Archive) Intern(prober id.ID) ProberHandle {
	h, ok := a.handleOf[prober]
	if !ok {
		a.probers = append(a.probers, prober)
		h = ProberHandle(len(a.probers))
		a.handleOf[prober] = h
	}
	return h
}

// Handle returns prober's handle, or zero — which matches no record —
// if it never recorded here.
func (a *Archive) Handle(prober id.ID) ProberHandle { return a.handleOf[prober] }

// ProberID resolves a handle this archive issued; the zero handle and
// foreign handles resolve to the zero identifier.
func (a *Archive) ProberID(h ProberHandle) id.ID {
	if h == 0 || int(h) > len(a.probers) {
		return id.ID{}
	}
	return a.probers[h-1]
}

// SetMetrics publishes the archive's record/prune counters and size
// gauge into reg (names "tomography/archive_*"). A nil registry
// disables publication.
func (a *Archive) SetMetrics(reg *metrics.Registry) {
	a.records = reg.Counter("tomography/archive_records")
	a.pruned = reg.Counter("tomography/archive_pruned")
	a.sizeG = reg.Gauge("tomography/archive_size")
}

// Record archives one prober's observations taken at time at.
func (a *Archive) Record(prober id.ID, at netsim.Time, obs []LinkObservation) error {
	h := a.Intern(prober)
	for _, o := range obs {
		recs := a.byLink[o.Link]
		if len(recs) > 0 && recs[len(recs)-1].At > at {
			return fmt.Errorf("tomography: out-of-order record for link %d (%v after %v)",
				o.Link, at, recs[len(recs)-1].At)
		}
		a.byLink[o.Link] = append(recs, ProbeRecord{At: at, Prober: h, Up: o.Up})
		a.size++
	}
	a.records.Add(uint64(len(obs)))
	a.sizeG.Set(int64(a.size))
	return nil
}

// Window returns the probe records for link within [from, to] as a
// zero-copy view into the archive's storage: no filtering, no
// allocation. The view is valid only until the next Record or Prune
// call — callers that retain records must copy them out. Blame
// evaluation, the hot consumer, iterates the view and discards it
// before returning, so a shared archive never allocates per judgment.
func (a *Archive) Window(link topology.LinkID, from, to netsim.Time) []ProbeRecord {
	recs := a.byLink[link]
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].At >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].At > to })
	return recs[lo:hi]
}

// Prune discards records older than before, bounding archive growth over
// long simulations. Surviving records are shifted down in place, so each
// link's backing array is retained: once a retention-bounded archive
// reaches steady state, Record appends stop allocating entirely.
// In-place pruning invalidates any outstanding Window views.
func (a *Archive) Prune(before netsim.Time) {
	var dropped int
	for link, recs := range a.byLink {
		cut := sort.Search(len(recs), func(i int) bool { return recs[i].At >= before })
		if cut == 0 {
			continue
		}
		dropped += cut
		if cut == len(recs) {
			delete(a.byLink, link)
			continue
		}
		n := copy(recs, recs[cut:])
		a.byLink[link] = recs[:n]
	}
	if dropped > 0 {
		a.size -= dropped
		a.pruned.Add(uint64(dropped))
		a.sizeG.Set(int64(a.size))
	}
}

// Size returns the total number of archived records.
func (a *Archive) Size() int { return a.size }
