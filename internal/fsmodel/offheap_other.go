//go:build !linux

package fsmodel

// mapAnon never maps off Linux, so alloc keeps every array on the Go
// heap; see offheap_linux.go.
func mapAnon(size uintptr) []byte { return nil }

// unmapAnon is never called off Linux.
func unmapAnon(b []byte) {}
