package client

import (
	"errors"
	"io"
	"testing"

	"repro/internal/nfs"
)

// zeroWriteView acknowledges every write with zero bytes and no error
// — the degenerate server behaviour that used to spin the serial write
// loop forever.
type zeroWriteView struct{ View }

func (zeroWriteView) Write(nfs.FH, uint64, []byte, uint32) (uint32, error) {
	return 0, nil
}

func TestWriteAtZeroProgress(t *testing.T) {
	f := &File{node: &node{view: zeroWriteView{}, mount: &mount{io: new(ioStats)}, fh: nfs.FH{1}}}
	n, err := f.WriteAt(make([]byte, 100), 0)
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v, want io.ErrShortWrite", err)
	}
	if n != 0 {
		t.Fatalf("n = %d, want 0", n)
	}
}
