// Package trace is the observability layer: structured events emitted
// by the simulator and protocol layers (probes, snapshot rejections,
// verdicts, accusations, link failures), with in-memory recorders for
// tests, debugging, and operational counters: the audit trail of who
// judged whom, when, and on what evidence.
package trace

import (
	"fmt"
	"sync"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	// KindProbe: a host completed a lightweight probe sweep.
	KindProbe Kind = iota + 1
	// KindSnapshotRejected: a received snapshot failed validation.
	KindSnapshotRejected
	// KindMessageSent: a stewarded message entered the overlay.
	KindMessageSent
	// KindMessageDropped: a stewarded message (or its ack) was lost.
	KindMessageDropped
	// KindVerdict: a steward judged its next hop.
	KindVerdict
	// KindAccusation: a formal accusation chain was assembled.
	KindAccusation
	// KindLinkFailed / KindLinkRepaired: IP link state changes.
	KindLinkFailed
	KindLinkRepaired
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindProbe:
		return "probe"
	case KindSnapshotRejected:
		return "snapshot-rejected"
	case KindMessageSent:
		return "message-sent"
	case KindMessageDropped:
		return "message-dropped"
	case KindVerdict:
		return "verdict"
	case KindAccusation:
		return "accusation"
	case KindLinkFailed:
		return "link-failed"
	case KindLinkRepaired:
		return "link-repaired"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one structured trace record. Zero-valued fields mean "not
// applicable to this kind".
type Event struct {
	At     netsim.Time
	Kind   Kind
	Node   id.ID
	Peer   id.ID
	Link   topology.LinkID
	Guilty bool
	Detail string
}

// String renders the event for logs.
func (e Event) String() string {
	s := fmt.Sprintf("%10.3fs %-18s", e.At.Seconds(), e.Kind)
	if e.Node != (id.ID{}) {
		s += " node=" + e.Node.Short()
	}
	if e.Peer != (id.ID{}) {
		s += " peer=" + e.Peer.Short()
	}
	if e.Kind == KindLinkFailed || e.Kind == KindLinkRepaired {
		s += fmt.Sprintf(" link=%d", e.Link)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Recorder consumes events. Implementations must tolerate concurrent
// callers.
type Recorder interface {
	Record(Event)
}

// Ring keeps the most recent capacity events.
type Ring struct {
	mu     sync.Mutex
	buf    []Event
	next   int
	filled int
}

// NewRing creates a bounded recorder.
func NewRing(capacity int) (*Ring, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("trace: ring capacity %d must be positive", capacity)
	}
	return &Ring{buf: make([]Event, capacity)}, nil
}

// Record stores the event, evicting the oldest when full.
func (r *Ring) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.filled < len(r.buf) {
		r.filled++
	}
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.filled)
	start := r.next - r.filled
	for i := 0; i < r.filled; i++ {
		out = append(out, r.buf[((start+i)%len(r.buf)+len(r.buf))%len(r.buf)])
	}
	return out
}

// Counter aggregates event counts by kind — the cheap always-on
// recorder.
type Counter struct {
	mu     sync.Mutex
	counts map[Kind]int
}

// NewCounter creates an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[Kind]int)}
}

// Record increments the kind's count.
func (c *Counter) Record(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[e.Kind]++
}

// Count returns the number of recorded events of kind k.
func (c *Counter) Count(k Kind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

// Total returns the number of recorded events.
func (c *Counter) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	for _, v := range c.counts {
		n += v
	}
	return n
}

// multi fans events out to several recorders.
type multi struct {
	recorders []Recorder
}

// Multi combines recorders; nil entries are skipped.
func Multi(rs ...Recorder) Recorder {
	kept := make([]Recorder, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			kept = append(kept, r)
		}
	}
	return &multi{recorders: kept}
}

func (m *multi) Record(e Event) {
	for _, r := range m.recorders {
		r.Record(e)
	}
}
