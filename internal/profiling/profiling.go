// Package profiling wraps runtime/pprof capture for the command-line
// tools: opt-in CPU and heap profiles written to user-chosen paths,
// plus the pprof goroutine labels the parallel execution layer attaches
// to its workers so -cpuprofile output attributes samples to a phase
// ("compact-routing", "trials", ...) and worker index.
package profiling

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
)

// WorkerLabel runs fn with pprof goroutine labels identifying the
// parexec phase and worker index. CPU-profile samples taken inside fn
// carry the labels, so `go tool pprof -tags` splits build-phase work
// from steady-state work per worker. The labels cost one context
// allocation per worker lifetime, not per work unit.
func WorkerLabel(phase string, worker int, fn func()) {
	labels := pprof.Labels("parexec_phase", phase, "parexec_worker", strconv.Itoa(worker))
	pprof.Do(context.Background(), labels, func(context.Context) { fn() })
}

// StartCPU begins CPU profiling into path and returns a stop function
// that finishes the profile and closes the file. An empty path is a
// no-op with a no-op stop.
func StartCPU(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("profiling: create cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("profiling: start cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeap writes an allocs-space heap profile to path after a final
// GC, so the snapshot reflects live-plus-freed allocation totals. An
// empty path is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profiling: create mem profile: %w", err)
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("profiling: write mem profile: %w", err)
	}
	return f.Close()
}
