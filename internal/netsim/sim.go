// Package netsim is the discrete-event network simulator beneath the
// Concilium evaluation: a virtual clock with an event heap, per-link
// up/down state with loss sampling, and the paper's link-failure
// injector (5% of overlay-path links down at any moment, ~15±7.5 minute
// downtimes, Beta(0.9, 0.6) depth bias toward edge links — §4.2).
package netsim

import (
	"fmt"
	"time"
)

// Time is virtual simulation time in nanoseconds since simulation start.
type Time int64

// Add offsets a Time by a duration.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two times.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds renders the time as fractional seconds, for reports.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

type event struct {
	at  Time
	seq uint64
	fn  func()
}

func (e *event) before(f *event) bool {
	return e.at < f.at || e.at == f.at && e.seq < f.seq
}

// eventHeap is a binary min-heap of events by (at, seq), held by value
// so scheduling allocates nothing once the heap has grown.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the closure
	q = q[:n]
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < n && q[l].before(&q[m]) {
			m = l
		}
		if r := l + 1; r < n && q[r].before(&q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// Simulator is a single-threaded discrete-event scheduler. Events at the
// same instant run in scheduling order. It is not safe for concurrent
// use; all model code runs inside event callbacks on one goroutine.
type Simulator struct {
	now  Time
	heap eventHeap
	seq  uint64
}

// NewSimulator creates a simulator at time zero.
func NewSimulator() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Schedule queues fn to run at the absolute virtual time at. Scheduling
// into the past is an error.
func (s *Simulator) Schedule(at Time, fn func()) error {
	if at < s.now {
		return fmt.Errorf("netsim: schedule at %v before now %v", at, s.now)
	}
	if fn == nil {
		return fmt.Errorf("netsim: nil event function")
	}
	s.seq++
	s.heap.push(event{at: at, seq: s.seq, fn: fn})
	return nil
}

// ScheduleAfter queues fn to run d after the current time. Negative
// delays clamp to zero.
func (s *Simulator) ScheduleAfter(d time.Duration, fn func()) error {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now.Add(d), fn)
}

// Step runs the earliest pending event, advancing the clock to it. It
// reports whether an event ran.
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.heap.pop()
	s.now = e.at
	e.fn()
	return true
}

// RunUntil executes events until the queue empties or the next event
// would run after deadline; the clock finishes at min(deadline, last
// event time) — it does not jump past the deadline.
func (s *Simulator) RunUntil(deadline Time) {
	for len(s.heap) > 0 && s.heap[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline && len(s.heap) > 0 {
		// Queue still has events beyond the deadline: park the clock.
		s.now = deadline
	}
	if len(s.heap) == 0 && s.now < deadline {
		s.now = deadline
	}
}

// RunFor executes events for a span of virtual time from now.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }
