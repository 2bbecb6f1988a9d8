package bdd

import "syscall"

// mapAnon maps size bytes of private anonymous memory advised to use
// huge pages, or returns nil if the mapping fails.
//
// The advice concerns this mapping alone; whether the kernel honours
// it is the host's setting, which this package never reads or writes.
func mapAnon(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil
	}
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE) // advice only: pages are usable either way
	return b
}

// unmapAnon gives back a mapping made by mapAnon.
func unmapAnon(b []byte) { _ = syscall.Munmap(b) }
