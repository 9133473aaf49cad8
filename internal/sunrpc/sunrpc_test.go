package sunrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/xdr"
)

const (
	testProg = 400100
	testVers = 1
)

type echoArgs struct {
	N   uint32
	Msg string
}

type echoRes struct {
	N   uint32
	Msg string
}

func echoHandler(proc uint32, cred OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
	switch proc {
	case 0: // null
		return struct{}{}, nil
	case 1: // echo
		var a echoArgs
		if err := args.Decode(&a); err != nil {
			return nil, ErrGarbageArgs
		}
		return echoRes{N: a.N + 1, Msg: a.Msg}, nil
	case 2: // whoami: returns the SFS auth number from the credential
		return AuthNumber(cred), nil
	case 3: // boom
		return nil, errors.New("internal failure")
	default:
		return nil, ErrProcUnavail
	}
}

func newTestPair(t *testing.T) (*Client, *Server) {
	t.Helper()
	srv := NewServer()
	srv.Register(testProg, testVers, echoHandler)
	c1, c2 := net.Pipe()
	go srv.ServeConn(c2) //nolint:errcheck
	cl := NewClient(c1)
	t.Cleanup(func() { cl.Close() })
	return cl, srv
}

func TestCallEcho(t *testing.T) {
	cl, _ := newTestPair(t)
	var res echoRes
	if err := cl.Call(testProg, testVers, 1, NoAuth(), echoArgs{N: 41, Msg: "hi"}, &res); err != nil {
		t.Fatal(err)
	}
	if res.N != 42 || res.Msg != "hi" {
		t.Fatalf("got %+v", res)
	}
}

func TestNullProc(t *testing.T) {
	cl, _ := newTestPair(t)
	if err := cl.Call(testProg, testVers, 0, NoAuth(), nil, &struct{}{}); err != nil {
		t.Fatal(err)
	}
}

func TestCredentialsDelivered(t *testing.T) {
	cl, _ := newTestPair(t)
	var got uint32
	if err := cl.Call(testProg, testVers, 2, SFSAuth(777), nil, &got); err != nil {
		t.Fatal(err)
	}
	if got != 777 {
		t.Fatalf("auth number: got %d, want 777", got)
	}
	if err := cl.Call(testProg, testVers, 2, NoAuth(), nil, &got); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("anonymous auth number: got %d, want 0", got)
	}
}

func TestProcUnavail(t *testing.T) {
	cl, _ := newTestPair(t)
	err := cl.Call(testProg, testVers, 99, NoAuth(), nil, nil)
	if !errors.Is(err, ErrProcUnavail) {
		t.Fatalf("got %v, want ErrProcUnavail", err)
	}
}

func TestProgUnavail(t *testing.T) {
	cl, _ := newTestPair(t)
	err := cl.Call(999999, 1, 0, NoAuth(), nil, nil)
	if !errors.Is(err, ErrProgUnavail) {
		t.Fatalf("got %v, want ErrProgUnavail", err)
	}
}

func TestProgMismatch(t *testing.T) {
	cl, _ := newTestPair(t)
	err := cl.Call(testProg, 42, 0, NoAuth(), nil, nil)
	if !errors.Is(err, ErrProgMismatch) {
		t.Fatalf("got %v, want ErrProgMismatch", err)
	}
}

func TestSystemErr(t *testing.T) {
	cl, _ := newTestPair(t)
	err := cl.Call(testProg, testVers, 3, NoAuth(), nil, nil)
	if !errors.Is(err, ErrSystemErr) {
		t.Fatalf("got %v, want ErrSystemErr", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	cl, _ := newTestPair(t)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i uint32) {
			defer wg.Done()
			var res echoRes
			if err := cl.Call(testProg, testVers, 1, NoAuth(), echoArgs{N: i, Msg: "c"}, &res); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if res.N != i+1 {
				t.Errorf("call %d: got %d", i, res.N)
			}
		}(uint32(i))
	}
	wg.Wait()
}

func TestAsyncOverlap(t *testing.T) {
	cl, _ := newTestPair(t)
	var chans []<-chan record
	for i := 0; i < 10; i++ {
		ch, err := cl.Start(testProg, testVers, 1, NoAuth(), echoArgs{N: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		var res echoRes
		if err := cl.Finish(ch, &res); err != nil {
			t.Fatal(err)
		}
		if res.N != uint32(i)+1 {
			t.Fatalf("reply %d: got %d", i, res.N)
		}
	}
}

func TestClosedClientFails(t *testing.T) {
	cl, _ := newTestPair(t)
	cl.Close()
	err := cl.Call(testProg, testVers, 0, NoAuth(), nil, nil)
	if err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

func TestRecordMarking(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{{1}, {2, 3}, bytes.Repeat([]byte{9}, 5000), {}}
	for _, m := range msgs {
		if err := WriteRecord(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadRecord(&buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestRecordFragments(t *testing.T) {
	// Hand-build a two-fragment record.
	var buf bytes.Buffer
	buf.Write([]byte{0x00, 0x00, 0x00, 0x03, 'a', 'b', 'c'})
	buf.Write([]byte{0x80, 0x00, 0x00, 0x02, 'd', 'e'})
	got, err := ReadRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcde" {
		t.Fatalf("got %q", got)
	}
}

func TestRecordTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x80, 0x00, 0x01, 0x00, 'x'})
	if _, err := ReadRecord(&buf); err == nil {
		t.Fatal("truncated record accepted")
	}
	if !errors.Is(io.ErrUnexpectedEOF, io.ErrUnexpectedEOF) {
		t.Fatal("sanity")
	}
}

func TestOverTCP(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, echoHandler)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		if conn, err := l.Accept(); err == nil {
			srv.ServeConn(conn) //nolint:errcheck
		}
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	defer cl.Close()
	var res echoRes
	if err := cl.Call(testProg, testVers, 1, NoAuth(), echoArgs{N: 1, Msg: "tcp"}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Msg != "tcp" || res.N != 2 {
		t.Fatalf("got %+v", res)
	}
}

func TestOverUDP(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, echoHandler)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go srv.ServePacket(pc) //nolint:errcheck
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(NewDatagramConn(conn))
	defer cl.Close()
	var res echoRes
	if err := cl.Call(testProg, testVers, 1, NoAuth(), echoArgs{N: 7, Msg: "udp"}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Msg != "udp" || res.N != 8 {
		t.Fatalf("got %+v", res)
	}
}

// TestDatagramReplyMatchesStreamRecord: ServePacket sends a reply
// through the same record writer as a stream connection, so a reply
// datagram is byte for byte the record a TCP peer reads, mark included:
// a small reply, an 8 KB borrowed payload and an error reply alike.
func TestDatagramReplyMatchesStreamRecord(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5, 0x5a, 7}, 3000)
	srv := NewServer()
	srv.Register(testProg, testVers, func(proc uint32, cred OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
		if proc == 9 {
			return payload, nil
		}
		return echoHandler(proc, cred, args)
	})
	c1, c2 := net.Pipe()
	defer c1.Close()
	go srv.ServeConn(c2) //nolint:errcheck
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go srv.ServePacket(pc) //nolint:errcheck
	udp, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()

	for i, proc := range []uint32{0, 9, 99} {
		var call bytes.Buffer
		if err := WriteRecord(&call, callRecord(t, uint32(i+1), proc)); err != nil {
			t.Fatal(err)
		}
		if _, err := c1.Write(call.Bytes()); err != nil {
			t.Fatal(err)
		}
		mark := make([]byte, 4)
		if _, err := io.ReadFull(c1, mark); err != nil {
			t.Fatal(err)
		}
		stream := append(mark, make([]byte, binary.BigEndian.Uint32(mark)&0x7fffffff)...)
		if _, err := io.ReadFull(c1, stream[4:]); err != nil {
			t.Fatal(err)
		}

		if _, err := udp.Write(call.Bytes()); err != nil {
			t.Fatal(err)
		}
		udp.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		dgram := make([]byte, 65536)
		n, err := udp.Read(dgram)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dgram[:n], stream) {
			t.Fatalf("proc %d: datagram (%d bytes) differs from the stream record (%d bytes)", proc, n, len(stream))
		}
	}
}

func BenchmarkNullCallPipe(b *testing.B) {
	srv := NewServer()
	srv.Register(testProg, testVers, echoHandler)
	c1, c2 := net.Pipe()
	go srv.ServeConn(c2) //nolint:errcheck
	cl := NewClient(c1)
	defer cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Call(testProg, testVers, 0, NoAuth(), nil, &struct{}{}); err != nil {
			b.Fatal(err)
		}
	}
}
