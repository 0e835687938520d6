package core

import (
	"fmt"
	"math"
	"time"

	"concilium/internal/fuzzy"
	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// BlameConfig parameterizes the fault-attribution equation of §3.4.
type BlameConfig struct {
	// ProbeAccuracy is a, the probability a probe correctly diagnoses a
	// link's status. The paper's evaluation uses 0.9.
	ProbeAccuracy float64
	// Delta is Δ: probe results from [t−Δ, t+Δ] are admissible evidence
	// for a message sent at t. The paper's evaluation uses 60 s.
	Delta time.Duration
	// GuiltyThreshold converts continuous blame into a binary verdict;
	// the paper's example threshold is 0.4 (§4.3).
	GuiltyThreshold float64
	// MinProbesPerLink is the evidence floor for a link's confidence to
	// count as known. The paper's equation treats an unprobed link as
	// "no evidence the link was bad" (confidence 0), which convicts the
	// forwarder on an empty archive; with MinProbesPerLink > 0 the
	// engine instead widens the verdict's uncertainty interval — an
	// under-evidenced link's confidence spans [0, 1] — and only
	// convicts when even the interval's lower blame bound clears the
	// threshold. 0 (the default) preserves the paper's behavior.
	MinProbesPerLink int
}

// DefaultBlameConfig returns the paper's evaluation parameters.
func DefaultBlameConfig() BlameConfig {
	return BlameConfig{ProbeAccuracy: 0.9, Delta: time.Minute, GuiltyThreshold: 0.4}
}

// Validate reports the first invalid field.
func (c BlameConfig) Validate() error {
	switch {
	case c.ProbeAccuracy < 0.5 || c.ProbeAccuracy > 1 || math.IsNaN(c.ProbeAccuracy):
		return fmt.Errorf("core: probe accuracy %v out of [0.5, 1]", c.ProbeAccuracy)
	case c.Delta <= 0:
		return fmt.Errorf("core: Δ %v must be positive", c.Delta)
	case c.GuiltyThreshold <= 0 || c.GuiltyThreshold >= 1:
		return fmt.Errorf("core: guilty threshold %v out of (0,1)", c.GuiltyThreshold)
	case c.MinProbesPerLink < 0:
		return fmt.Errorf("core: min probes per link %d negative", c.MinProbesPerLink)
	}
	return nil
}

// LinkConfidence is one link's aggregated evidence: the fuzzy confidence
// that the link was bad during the evidence window.
type LinkConfidence struct {
	Link       topology.LinkID
	Probes     int
	Confidence float64
}

// BlameResult is the outcome of one fault attribution.
type BlameResult struct {
	// Judged is the forwarder being evaluated (B in the paper's running
	// example); the path is B→C, the IP route to its next hop.
	Judged id.ID
	At     netsim.Time
	// Blame is Pr(B faulty) per Eq. 2: 1 − max-link confidence that the
	// path was bad. With under-evidenced links it is the interval's
	// upper bound (every unknown link assumed healthy).
	Blame float64
	// BlameLo is the lower bound of the blame interval: every
	// under-evidenced link assumed fully bad. Equal to Blame when all
	// links met the evidence floor.
	BlameLo float64
	// Degraded reports that at least one link fell below the engine's
	// MinProbesPerLink evidence floor, so the verdict carries widened
	// uncertainty (stale or partial evidence, §3.4's admissibility
	// window left empty).
	Degraded bool
	// TotalProbes is the number of admissible probe records consulted
	// across all links.
	TotalProbes int
	// Guilty applies the configured threshold — to Blame normally, to
	// BlameLo when the verdict is degraded, so missing evidence never
	// convicts on its own.
	Guilty bool
	// WorstLink is the link that bounded the network's culpability (the
	// argmax of Eq. 3), if any probes covered the path.
	WorstLink LinkConfidence
	// Evidence holds the per-link confidences used, for archiving into
	// accusations.
	Evidence []LinkConfidence
}

// RecordFilter lets callers transform or drop archived records at
// judgment time. The accusation experiments use it to model colluders
// who adapt their published results to whoever is being judged (§4.3);
// returning false discards the record. It is called once per admissible
// record. rec.Prober and judgedHandle are archive handles — judgedHandle
// is the judged node's, from the engine's Probers, zero if it has none —
// so a filter over a CompactSystem reads both slabs as handle − 1
// without touching the identifier space. A filter must not mutate
// shared state: Blame may run concurrently.
type RecordFilter func(judged id.ID, judgedHandle tomography.ProberHandle, rec tomography.ProbeRecord) (tomography.ProbeRecord, bool)

// Probers names the probers behind an archive's handles, both ways:
// Blame needs the judged node's handle for self-exclusion and, under a
// witness grouping, each handle's identifier. CompactSystem is one.
type Probers interface {
	// ProberHandle returns nid's handle, or zero, which no record carries.
	ProberHandle(nid id.ID) tomography.ProberHandle
	// ProberID returns h's prober, or the zero identifier if none.
	ProberID(h tomography.ProberHandle) id.ID
}

// WitnessGrouping maps a prober to its witness group. Probers sharing
// a group aggregate into ONE witness before link confidences are
// combined — the clique-discounting rule: k colluders publishing k
// corroborating observations carry the weight of a single independent
// witness. The self-exclusion rule extends to the whole group: nobody
// in the judged node's group may testify about it.
type WitnessGrouping func(prober id.ID) id.ID

// BlameOption configures a BlameEngine.
type BlameOption func(*BlameEngine)

// WithRecordFilter installs a judgment-time record transform.
func WithRecordFilter(f RecordFilter) BlameOption {
	return func(e *BlameEngine) { e.filter = f }
}

// BlameEngine evaluates Eq. 2/3 against an archive of disseminated probe
// results.
type BlameEngine struct {
	archive *tomography.Archive
	probers Probers
	cfg     BlameConfig
	filter  RecordFilter
	group   WitnessGrouping
}

// NewBlameEngine creates an engine reading from archive, whose record
// handles probers names.
func NewBlameEngine(archive *tomography.Archive, probers Probers, cfg BlameConfig, opts ...BlameOption) (*BlameEngine, error) {
	if archive == nil || probers == nil {
		return nil, fmt.Errorf("core: blame engine requires an archive and its probers")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &BlameEngine{archive: archive, probers: probers, cfg: cfg}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Config returns the engine's parameters.
func (e *BlameEngine) Config() BlameConfig { return e.cfg }

// SetWitnessGrouping installs the engine's witness grouping. Campaigns
// install it once collusion suspicions accumulate; nil, the default,
// keeps the paper's record-level averaging, in which every archived
// probe counts equally. All judgments run on the simulator goroutine,
// so no locking is needed.
func (e *BlameEngine) SetWitnessGrouping(g WitnessGrouping) { e.group = g }

// linkConfidence evaluates the inner expression of Eq. 3 for one link:
// each admissible probe contributes a when it saw the link down and
// (1−a) when it saw it up, averaged over the probes. No probes means no
// evidence the link was bad (confidence 0). It iterates the archive's
// zero-copy span, so a judgment allocates nothing per link, and skips
// the judged node's own records (§3.4: no node testifies about itself).
// self is the judged node's archive handle (zero if it has none, which
// no record carries), so the rule costs one integer compare per record;
// groups is the call's witness-group state, nil without a grouping.
func (e *BlameEngine) linkConfidence(judged id.ID, self tomography.ProberHandle, groups *witnessGroups, link topology.LinkID, at netsim.Time) LinkConfidence {
	from := at.Add(-e.cfg.Delta)
	to := at.Add(e.cfg.Delta)
	span := e.archive.Span(link, from, to)
	lc := LinkConfidence{Link: link}
	a := e.cfg.ProbeAccuracy
	if groups != nil {
		return e.groupedConfidence(judged, self, groups, &span, lc, a)
	}
	var sum float64
	for run := span.Next(); run != nil; run = span.Next() {
		for _, r := range run {
			if r.Prober() == self {
				continue
			}
			if e.filter != nil {
				var keep bool
				if r, keep = e.filter(judged, self, r); !keep {
					continue
				}
			}
			lc.Probes++
			if r.Up() {
				sum += 1 - a
			} else {
				sum += a
			}
		}
	}
	if lc.Probes == 0 {
		return lc
	}
	lc.Confidence = fuzzy.Clamp(sum / float64(lc.Probes))
	return lc
}

// witnessGroups is one Blame call's witness-group bookkeeping. The
// grouping is a union-find walk over identifiers, so each distinct
// prober handle's group is resolved once per call and numbered densely
// in first-seen order; the judged node's group is number 0. It lives in
// the call, never on the engine, so concurrent judgments share nothing.
type witnessGroups struct {
	ofHandle map[tomography.ProberHandle]int32 // handle → group number
	number   map[id.ID]int32                   // group representative → number
	// accs holds the current link's accumulators in first-seen order;
	// slot[g] is group g's position in accs plus one, zero while g has
	// no record on the link.
	accs []groupAcc
	slot []int32
}

type groupAcc struct {
	group int32
	sum   float64
	n     int
}

func (e *BlameEngine) newWitnessGroups(judged id.ID) *witnessGroups {
	w := &witnessGroups{
		ofHandle: make(map[tomography.ProberHandle]int32),
		number:   make(map[id.ID]int32),
	}
	w.numberOf(e.group(judged))
	return w
}

// of returns the group number of the prober behind handle h.
func (w *witnessGroups) of(e *BlameEngine, h tomography.ProberHandle) int32 {
	g, ok := w.ofHandle[h]
	if !ok {
		g = w.numberOf(e.group(e.probers.ProberID(h)))
		w.ofHandle[h] = g
	}
	return g
}

func (w *witnessGroups) numberOf(rep id.ID) int32 {
	g, ok := w.number[rep]
	if !ok {
		g = int32(len(w.slot))
		w.number[rep] = g
		w.slot = append(w.slot, 0)
	}
	return g
}

// groupedConfidence is the clique-discounted variant of linkConfidence:
// records aggregate per witness group first (each group's records
// average into one vote), then groups average into the link confidence,
// so k colluding probers weigh as one witness. Group accumulators are
// kept in first-seen order — the archive span is deterministic — so
// the floating-point summation order is fixed. Self-exclusion extends
// to the judged node's whole group.
func (e *BlameEngine) groupedConfidence(judged id.ID, self tomography.ProberHandle, w *witnessGroups, span *tomography.Span, lc LinkConfidence, a float64) LinkConfidence {
	for run := span.Next(); run != nil; run = span.Next() {
		for _, r := range run {
			if r.Prober() == self {
				continue
			}
			g := w.of(e, r.Prober())
			if g == 0 {
				continue
			}
			if e.filter != nil {
				var keep bool
				if r, keep = e.filter(judged, self, r); !keep {
					continue
				}
			}
			lc.Probes++
			v := a
			if r.Up() {
				v = 1 - a
			}
			j := w.slot[g]
			if j == 0 {
				w.accs = append(w.accs, groupAcc{group: g})
				j = int32(len(w.accs))
				w.slot[g] = j
			}
			w.accs[j-1].sum += v
			w.accs[j-1].n++
		}
	}
	var sum float64
	for _, acc := range w.accs {
		sum += acc.sum / float64(acc.n)
		w.slot[acc.group] = 0
	}
	groups := len(w.accs)
	w.accs = w.accs[:0]
	if lc.Probes == 0 {
		return lc
	}
	lc.Confidence = fuzzy.Clamp(sum / float64(groups))
	return lc
}

// Blame evaluates Eq. 2 for the forwarder judged, whose next-hop IP path
// is path, for a message sent at time at. The judged node's own probe
// results are excluded, so it cannot talk its way out of blame (§3.4).
// The fuzzy-OR accumulates incrementally, so without a witness grouping
// the only allocation is the Evidence slice that escapes into the
// result; with one, the call's group tables are allocated once per call.
// Blame is safe to call concurrently. The only shared state it writes
// is the archive's: the first read after a probe sweep settles the
// staged sweeps, under the archive's lock.
func (e *BlameEngine) Blame(judged id.ID, path []topology.LinkID, at netsim.Time) (BlameResult, error) {
	if len(path) == 0 {
		return BlameResult{}, fmt.Errorf("core: blame over empty path")
	}
	res := BlameResult{Judged: judged, At: at, Evidence: make([]LinkConfidence, 0, len(path))}
	self := e.probers.ProberHandle(judged)
	var groups *witnessGroups
	if e.group != nil {
		groups = e.newWitnessGroups(judged)
	}
	var orConf, orWorst float64
	for _, l := range path {
		lc := e.linkConfidence(judged, self, groups, l, at)
		res.Evidence = append(res.Evidence, lc)
		res.TotalProbes += lc.Probes
		if v := fuzzy.Clamp(lc.Confidence); v > orConf {
			orConf = v
		}
		if lc.Probes < e.cfg.MinProbesPerLink {
			// Under-evidenced: the link's true confidence could be
			// anything in [0, 1]; for the lower blame bound assume it
			// was fully bad (which exonerates the forwarder).
			res.Degraded = true
			orWorst = 1
		} else if v := fuzzy.Clamp(lc.Confidence); v > orWorst {
			orWorst = v
		}
		if lc.Confidence > res.WorstLink.Confidence || res.WorstLink.Probes == 0 && lc.Probes > 0 {
			res.WorstLink = lc
		}
	}
	// Eq. 2: Pr(B faulty) = 1 − Pr(path bad) = 1 − fuzzy-OR over links.
	res.Blame = fuzzy.Not(orConf)
	res.BlameLo = fuzzy.Not(orWorst)
	if res.Degraded {
		// Partial or stale evidence: widen rather than convict. The
		// threshold must clear even under the assumption that every
		// unprobed link was broken.
		res.Guilty = res.BlameLo >= e.cfg.GuiltyThreshold
	} else {
		res.Guilty = res.Blame >= e.cfg.GuiltyThreshold
	}
	return res, nil
}

// RecomputeBlame re-derives the blame value from archived evidence — the
// verification third parties run before honoring an accusation (§3.4).
// It returns the blame implied by the evidence list alone.
func RecomputeBlame(evidence []LinkConfidence) float64 {
	confidences := make([]float64, len(evidence))
	for i, lc := range evidence {
		confidences[i] = lc.Confidence
	}
	return fuzzy.Not(fuzzy.Or(confidences...))
}
