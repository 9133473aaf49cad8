package secchan

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadHello feeds the server master's first read — a clear-text
// SFS_CONNECT or SFS_RESUME hello from any peer — arbitrary bytes. It
// must never panic, must yield exactly one kind of hello, and a hello
// it accepts must survive a re-encode unchanged. Seeds in
// testdata/fuzz/FuzzReadHello: both hellos, a fragmented record, a
// truncated one and an unknown tag.
func FuzzReadHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		var v interface{}
		switch {
		case h.Connect != nil && h.Resume == nil:
			v = *h.Connect
		case h.Resume != nil && h.Connect == nil:
			v = *h.Resume
		default:
			t.Fatalf("hello carries %v connect and %v resume", h.Connect != nil, h.Resume != nil)
		}
		var b bytes.Buffer
		if err := writeMsg(&b, v); err != nil {
			t.Fatalf("re-encoding an accepted hello: %v", err)
		}
		again, err := ReadHello(&b)
		if err != nil {
			t.Fatalf("re-reading an accepted hello: %v", err)
		}
		if !reflect.DeepEqual(h, again) {
			t.Fatalf("hello changed across a re-encode:\n%+v\n%+v", h, again)
		}
	})
}
