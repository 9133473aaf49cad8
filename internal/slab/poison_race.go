//go:build race

package slab

// poisonByte is the fill of a returned buffer: the value of
// xdr.PoisonByte, so a stale read looks the same in both debug modes.
const poisonByte = 0xDB

// poison fills a buffer that is going back to the pool. A holder that
// still reads it after Put reads poison, and the race detector reports
// the fill as a write racing with that read.
func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
