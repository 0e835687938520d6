package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// pinThread locks the calling goroutine to its thread and that thread
// to one CPU, the highest the process may run on. The measured work is
// one goroutine; left to the scheduler it migrates between CPUs and its
// throughput wanders by ±10% for seconds at a time, which no block
// median removes. The runtime's own threads (GC workers) stay free to
// use the other CPUs. It reports whether pinning worked; the run
// proceeds either way.
func pinThread() bool {
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	size := unsafe.Sizeof(mask)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return false
	}
	for w := len(mask) - 1; w >= 0; w-- {
		if mask[w] == 0 {
			continue
		}
		bit := 63
		for mask[w]&(1<<bit) == 0 {
			bit--
		}
		mask = [16]uint64{}
		mask[w] = 1 << bit
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask)))
		return errno == 0
	}
	return false
}
