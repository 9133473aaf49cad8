//go:build unix && !race

package slab

import "syscall"

// mapSlab maps n bytes of anonymous memory outside the Go heap, so
// buffers cut from it count once toward RSS and not at all toward the
// GC's heap goal.
func mapSlab(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func unmapSlab(slab []byte) error { return syscall.Munmap(slab) }
