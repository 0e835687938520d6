//go:build !linux

package main

// pinThread is a no-op where CPU affinity is not available.
func pinThread() bool { return false }
