//go:build !race

package slab

// poison leaves a returned buffer as it is: only race builds poison
// (poison_race.go).
func poison([]byte) {}
