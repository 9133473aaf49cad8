package sunrpc

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/xdr"
)

// datagrams splits a fuzz input into datagrams, each behind a 2-byte
// big-endian length; a tail shorter than its length is the last one.
func datagrams(in []byte) [][]byte {
	var out [][]byte
	for len(in) >= 2 {
		n := int(binary.BigEndian.Uint16(in))
		in = in[2:]
		n = min(n, len(in))
		out = append(out, in[:n])
		in = in[n:]
	}
	return out
}

// TestDatagramConnTakesWholeRecordsOnly: ReadRecord hands over a
// datagram only when it is one whole single-fragment record, and drops
// every other datagram alone: a call behind an empty datagram, a bare
// mark, a padded copy of itself, a cut one, a first fragment and one
// whose mark claims a byte more is still the next record.
func TestDatagramConnTakesWholeRecordsOnly(t *testing.T) {
	call := callRecord(t, 7, 0)
	var whole bytes.Buffer
	if err := WriteRecord(&whole, call); err != nil {
		t.Fatal(err)
	}
	mark := func(m uint32, body []byte) []byte { return append(binary.BigEndian.AppendUint32(nil, m), body...) }
	c1, c2 := net.Pipe()
	defer c1.Close()
	go func() {
		defer c2.Close()
		for _, dg := range [][]byte{
			{},
			{0x80, 0, 0},
			append(bytes.Clone(whole.Bytes()), 0),
			whole.Bytes()[:whole.Len()-1],
			mark(8, call[:8]),
			mark(0x80000000|uint32(len(call)+1), call),
			whole.Bytes(),
		} {
			if _, err := c2.Write(dg); err != nil {
				return
			}
		}
	}()
	d := NewDatagramConn(c1)
	rec, ok, err := d.ReadRecord()
	if err != nil || !ok || !bytes.Equal(rec, call) {
		t.Fatalf("first record: ok=%v err=%v, %d bytes, want the %d-byte call", ok, err, len(rec), len(call))
	}
	if _, _, err := d.ReadRecord(); err == nil {
		t.Fatal("a record after the last whole one")
	}
}

// FuzzDatagramConn feeds arbitrary datagrams to a served datagram
// connection, then a well-formed call. Nothing may panic, and the call
// must be answered: a datagram that is not one whole single-fragment
// record is dropped alone and never desynchronises what follows. The
// seeds (testdata/fuzz) are a call, an empty datagram, a 3-byte one, a
// record cut short, one padded past its mark, one whose mark claims
// more than any datagram holds, a record split into two fragments, a
// stray reply, garbage, and an input whose last length overruns it;
// each ends in a whole call. net.Pipe hands each Write of up to 64 KiB
// to one Read, as a datagram socket does.
func FuzzDatagramConn(f *testing.F) {
	const probe = 0xfeedf00d
	f.Fuzz(func(t *testing.T, in []byte) {
		srv := NewServer()
		srv.Register(testProg, testVers, echoHandler)
		c1, c2 := net.Pipe()
		served := make(chan struct{})
		go func() {
			srv.ServeConn(NewDatagramConn(c2)) //nolint:errcheck
			close(served)
		}()
		defer func() { c1.Close(); <-served }()

		// The client end drains every reply, so no server write ever
		// waits on it, and reports the probe's answer.
		answered := make(chan struct{}, 1)
		go func() {
			d := NewDatagramConn(c1)
			for {
				rec, _, err := d.ReadRecord()
				if err != nil {
					return
				}
				var res echoRes
				if len(rec) >= 4 && binary.BigEndian.Uint32(rec) == probe &&
					decodeReply(rec, &res) == nil && res == (echoRes{N: 42, Msg: "probe"}) {
					select {
					case answered <- struct{}{}:
					default: // a fuzzed copy of the probe was answered too
					}
				}
			}
		}()

		for _, dg := range datagrams(in) {
			if _, err := c1.Write(dg); err != nil {
				t.Fatal(err)
			}
		}
		call := append(callRecord(t, probe, 1), xdr.MustMarshal(echoArgs{N: 41, Msg: "probe"})...)
		if err := WriteRecord(c1, call); err != nil {
			t.Fatal(err)
		}
		select {
		case <-answered:
		case <-time.After(10 * time.Second):
			t.Fatal("a well-formed call after the fuzzed datagrams was not answered")
		}
	})
}
