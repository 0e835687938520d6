package trace

import (
	"strings"
	"sync"
	"testing"

	"concilium/internal/id"
	"concilium/internal/netsim"
)

func TestKindString(t *testing.T) {
	t.Parallel()
	names := map[Kind]string{
		KindProbe:            "probe",
		KindSnapshotRejected: "snapshot-rejected",
		KindMessageSent:      "message-sent",
		KindMessageDropped:   "message-dropped",
		KindVerdict:          "verdict",
		KindAccusation:       "accusation",
		KindLinkFailed:       "link-failed",
		KindLinkRepaired:     "link-repaired",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestEventString(t *testing.T) {
	t.Parallel()
	e := Event{
		At:     1_500_000_000,
		Kind:   KindLinkFailed,
		Link:   42,
		Detail: "injected",
	}
	s := e.String()
	for _, want := range []string{"link-failed", "link=42", "injected", "1.500"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func TestRingEviction(t *testing.T) {
	t.Parallel()
	r, err := NewRing(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r.Record(Event{At: netsim.Time(i), Kind: KindProbe})
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("retained %d events, want 3", len(events))
	}
	for i, e := range events {
		if e.At != netsim.Time(i+2) {
			t.Errorf("event %d at %v, want %d", i, e.At, i+2)
		}
	}
	if _, err := NewRing(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestCounter(t *testing.T) {
	t.Parallel()
	c := NewCounter()
	c.Record(Event{Kind: KindProbe})
	c.Record(Event{Kind: KindProbe})
	c.Record(Event{Kind: KindVerdict})
	if c.Count(KindProbe) != 2 || c.Count(KindVerdict) != 1 {
		t.Errorf("counts = %d, %d", c.Count(KindProbe), c.Count(KindVerdict))
	}
	if c.Total() != 3 {
		t.Errorf("Total = %d", c.Total())
	}
	if c.Count(KindAccusation) != 0 {
		t.Error("unseen kind has count")
	}
}

func TestMulti(t *testing.T) {
	t.Parallel()
	a, b := NewCounter(), NewCounter()
	m := Multi(a, nil, b)
	m.Record(Event{Kind: KindProbe})
	if a.Total() != 1 || b.Total() != 1 {
		t.Error("multi did not fan out")
	}
}

func TestRecordersConcurrentSafe(t *testing.T) {
	t.Parallel()
	ring, err := NewRing(64)
	if err != nil {
		t.Fatal(err)
	}
	counter := NewCounter()
	m := Multi(ring, counter)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Record(Event{Kind: KindProbe, Node: id.ID{byte(i)}})
			}
		}()
	}
	wg.Wait()
	if counter.Total() != 1600 {
		t.Errorf("Total = %d, want 1600", counter.Total())
	}
	if len(ring.Events()) != 64 {
		t.Errorf("ring retained %d, want 64", len(ring.Events()))
	}
}
