package fsmodel

import (
	"sync/atomic"
	"unsafe"
)

// offHeapMinBytes is the size from which a dense-state array (the lazy
// state's stamp and ring, the dense directory) is an anonymous mapping
// outside the Go heap instead of a make'd slice. Large arrays on the heap
// raise the collector's goal by their full size for as long as they are
// live, and two concurrent evaluations double that; a mapping is
// returned to the OS the moment its run ends, and pages the run never
// touches are never committed. Small arrays stay on the heap: a mapping
// costs two system calls, which dominates short runs.
const offHeapMinBytes = 256 << 10

// liveMappings counts mappings made by alloc and not yet released; the
// tests use it to prove that every exit path of Analyze unmaps.
var liveMappings atomic.Int64

// pointerFree lists the element types alloc may place outside the Go
// heap: the collector does not scan mappings, so they must never hold Go
// pointers.
type pointerFree interface {
	int32 | uint64 | dirEntry
}

// offHeap owns one run's mapped arrays. A slice alloc returned from a
// mapping is invalid after release — touching it faults instead of
// panicking — so nothing reachable from a Result may alias one.
type offHeap struct {
	maps [][]byte
}

// alloc returns a zeroed slice of n elements: mapped when it is at least
// offHeapMinBytes and the platform maps anonymous memory (Linux), made
// otherwise.
func alloc[T pointerFree](h *offHeap, n int64) []T {
	var zero T
	size := uintptr(n) * unsafe.Sizeof(zero)
	if size >= offHeapMinBytes {
		if b := mapAnon(size); b != nil {
			h.maps = append(h.maps, b)
			liveMappings.Add(1)
			return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
		}
	}
	return make([]T, n)
}

// release unmaps every array alloc mapped for h. It is idempotent.
func (h *offHeap) release() {
	for _, b := range h.maps {
		unmapAnon(b)
		liveMappings.Add(-1)
	}
	h.maps = nil
}
