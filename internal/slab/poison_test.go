//go:build race

package slab

import (
	"bytes"
	"testing"
)

// TestPutPoisonsReturnedBuffers: a race build fills a returned buffer
// with poison, so a holder that reads it after Put sees garbage.
func TestPutPoisonsReturnedBuffers(t *testing.T) {
	p := New(bufSize)
	b := getN(t, p, 2)
	copy(b[0], "data the caller still thinks it owns")
	p.Put(b[0][:10])
	if !bytes.Equal(b[0], bytes.Repeat([]byte{poisonByte}, bufSize)) {
		t.Fatal("a returned buffer kept its bytes")
	}
	p.Put(b[1])
}
