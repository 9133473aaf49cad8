//go:build race || !unix

package slab

// mapSlab takes the slab from the Go heap. The race detector shadows
// heap memory only, so race builds keep buffer bytes where it can see
// them; platforms without mmap take this path too.
func mapSlab(n int) ([]byte, error) { return make([]byte, n), nil }

func unmapSlab([]byte) error { return nil }
