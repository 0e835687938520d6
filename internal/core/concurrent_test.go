package core

import (
	"sync"
	"testing"

	"concilium/internal/id"
)

// Hammer tests for the mutex-guarded structures shared by concurrent
// callers. They assert nothing subtle about values — the point is the
// interleaving itself, checked by the race detector in the CI
// `go test -race` pass.

func hammerID(b byte) id.ID {
	var nid id.ID
	nid[0] = b
	return nid
}

func TestDefenseArchiveConcurrent(t *testing.T) {
	t.Parallel()
	owner := hammerID(9)
	archive := NewDefenseArchive(owner)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				acc := Accusation{
					Accuser: owner,
					Accused: hammerID(byte(50 + g)),
					MsgID:   uint64(g*1000 + i),
				}
				if err := archive.Record(acc); err != nil {
					t.Errorf("record: %v", err)
					return
				}
				if i%13 == 0 {
					archive.Len()
				}
			}
		}(g)
	}
	wg.Wait()

	if got := archive.Len(); got != goroutines*200 {
		t.Fatalf("archive holds %d verdicts, want %d", got, goroutines*200)
	}
	if err := archive.Record(Accusation{Accuser: hammerID(99)}); err == nil {
		t.Fatal("foreign accusation accepted")
	}
}
