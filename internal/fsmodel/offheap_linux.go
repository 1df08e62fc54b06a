//go:build linux

package fsmodel

import "syscall"

// mapAnon maps size bytes of fresh zeroed memory, or returns nil if the
// kernel refuses (alloc then falls back to the heap).
//
// The mapping is advised to use transparent huge pages: the lazy state's
// stamp and ring arrays span up to tens of megabytes and are accessed as
// ~hundreds of interleaved per-thread streams, so with 4K pages the hot
// loop spends much of its time in TLB walks; 2M pages cover the whole
// state with a handful of TLB entries. The advice is best effort:
// failures (or THP disabled) are ignored.
func mapAnon(size uintptr) []byte {
	b, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE) // best effort, see above
	return b
}

// unmapAnon returns a mapAnon mapping to the OS. Unmapping a whole live
// mapping cannot fail; if it somehow did, the pages would only leak.
func unmapAnon(b []byte) {
	_ = syscall.Munmap(b)
}
