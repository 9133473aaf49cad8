package secchan

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// segRWC is an in-memory transport that also accepts vectored writes,
// standing in for netsim.Conn so the plaintext zero-copy path runs.
type segRWC struct {
	*bytes.Buffer
	segWrites int
}

func (s *segRWC) Close() error { return nil }

func (s *segRWC) WriteSegments(segs [][]byte) (int, int, error) {
	n := 0
	for _, sg := range segs {
		m, err := s.Buffer.Write(sg)
		n += m
		if err != nil {
			return n, 0, err
		}
	}
	s.segWrites++
	return n, 0, nil
}

var _ sunrpc.SegmentWriter = (*segRWC)(nil)

func gatherPair(t testing.TB) (cw, sr *Conn, wire *segRWC) {
	t.Helper()
	wire = &segRWC{Buffer: &bytes.Buffer{}}
	keyCS := bytes.Repeat([]byte{0x11}, keyHalf)
	keySC := bytes.Repeat([]byte{0x22}, keyHalf)
	cw, err := newConn(wire, keyCS, keySC, true)
	if err != nil {
		t.Fatal(err)
	}
	sr, err = newConn(wire, keyCS, keySC, false)
	if err != nil {
		t.Fatal(err)
	}
	return cw, sr, wire
}

// plainPair is gatherPair with both ends in MAC-only mode.
func plainPair(t testing.TB) (cw, sr *Conn, wire *segRWC) {
	cw, sr, wire = gatherPair(t)
	cw.DisableEncryption()
	sr.DisableEncryption()
	return cw, sr, wire
}

// split chops p into segments at the given cut points.
func split(p []byte, cuts ...int) [][]byte {
	var segs [][]byte
	prev := 0
	for _, c := range cuts {
		segs = append(segs, p[prev:c])
		prev = c
	}
	return append(segs, p[prev:])
}

// A record sealed from segments must be byte-identical on the wire to
// the same plaintext sealed through Write — the receiver cannot tell
// which entry point the sender used.
func TestWriteSegmentsMatchesWrite(t *testing.T) {
	plain := make([]byte, 8192+100)
	for i := range plain {
		plain[i] = byte(i * 31)
	}
	flatW, _, flatWire := gatherPair(t)
	if _, err := flatW.Write(plain); err != nil {
		t.Fatal(err)
	}
	gatherW, sr, gatherWire := gatherPair(t)
	n, copied, err := gatherW.WriteSegments(split(plain, 4, 100, 100+8192))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(plain) {
		t.Fatalf("WriteSegments n = %d, want %d", n, len(plain))
	}
	if copied != 4+len(plain)+20 {
		t.Fatalf("enc-on copied = %d, want sealed record length %d", copied, 4+len(plain)+20)
	}
	if !bytes.Equal(flatWire.Bytes(), gatherWire.Bytes()) {
		t.Fatal("gathered seal produced different ciphertext than Write")
	}
	got := make([]byte, len(plain))
	if _, err := io.ReadFull(sr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("receiver decoded different plaintext")
	}
}

// With encryption off and a vectored transport, sealing stages zero
// bytes: header, borrowed segments, and MAC go down as segments.
func TestWriteSegmentsPlaintextVectored(t *testing.T) {
	cw, sr, wire := plainPair(t)
	plain := bytes.Repeat([]byte{0x5c}, 8192)
	n, copied, err := cw.WriteSegments(split(plain, 1024, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(plain) || copied != 0 {
		t.Fatalf("vectored plaintext: n=%d copied=%d, want n=%d copied=0", n, copied, len(plain))
	}
	if wire.segWrites == 0 {
		t.Fatal("plaintext path did not use the transport's vectored write")
	}
	got := make([]byte, len(plain))
	if _, err := io.ReadFull(sr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("receiver decoded different plaintext")
	}
}

// Interleaving WriteSegments and Write on one channel must keep the
// key stream aligned in both modes.
func TestWriteSegmentsInterleavesWithWrite(t *testing.T) {
	for _, enc := range []bool{true, false} {
		pair := gatherPair
		if !enc {
			pair = plainPair
		}
		cw, sr, _ := pair(t)
		var want []byte
		for i := 0; i < 6; i++ {
			p := bytes.Repeat([]byte{byte(0x40 + i)}, 600*(i+1))
			var err error
			if i%2 == 0 {
				_, _, err = cw.WriteSegments(split(p, len(p)/3))
			} else {
				_, err = cw.Write(p)
			}
			if err != nil {
				t.Fatalf("enc=%v record %d: %v", enc, i, err)
			}
			want = append(want, p...)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(sr, got); err != nil {
			t.Fatalf("enc=%v: %v", enc, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("enc=%v: interleaved records decoded wrong", enc)
		}
	}
}

// The gathered seal path must stay allocation-free: it is the per-RPC
// reply path, and PR 1's zero-alloc discipline is an acceptance
// criterion for this refactor too. Hard fail, same pattern as
// TestWarmReadHitPathZeroAlloc.
func TestSealGatherZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	cw, _, wire := gatherPair(t)
	payload := make([]byte, 8192)
	hdr := make([]byte, 96)
	segs := [][]byte{hdr, payload}
	// Warm the scratch buffers.
	if _, _, err := cw.WriteSegments(segs); err != nil {
		t.Fatal(err)
	}
	wire.Buffer.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		wire.Buffer.Reset()
		if _, _, err := cw.WriteSegments(segs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("gathered seal allocated %.1f times per record, want 0", allocs)
	}
}

// Concurrent gathered writes on one Conn must serialize cleanly: the
// MAC key pull, key-stream advance, and raw write all happen under
// wmu, so every record must still open. Run under -race this is the
// stress test for the new write path's locking.
func TestConcurrentGatherWritesRace(t *testing.T) {
	cw, sr, _ := gatherPair(t)
	const (
		writers = 8
		each    = 25
		recLen  = 2048
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := bytes.Repeat([]byte{byte(w)}, recLen)
			for i := 0; i < each; i++ {
				if i%3 == 0 {
					if _, err := cw.Write(p); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if _, _, err := cw.WriteSegments(split(p, 512, 1500)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every record must open with a valid MAC; counts per fill byte
	// must match what the writers sent.
	counts := make(map[byte]int)
	buf := make([]byte, recLen)
	for r := 0; r < writers*each; r++ {
		if _, err := io.ReadFull(sr, buf); err != nil {
			t.Fatalf("record %d: %v", r, err)
		}
		for _, b := range buf[1:] {
			if b != buf[0] {
				t.Fatalf("record %d interleaved: %x vs %x", r, b, buf[0])
			}
		}
		counts[buf[0]]++
	}
	for w := 0; w < writers; w++ {
		if counts[byte(w)] != each {
			t.Fatalf("writer %d: %d records arrived, want %d", w, counts[byte(w)], each)
		}
	}
}

// BenchmarkSealGather measures the gathered seal of one NFS-READ-sized
// reply (headers + borrowed 8KB payload) — the hot server reply path.
func BenchmarkSealGather(b *testing.B) {
	cw, _, wire := gatherPair(b)
	payload := make([]byte, 8192)
	hdr := make([]byte, 96)
	segs := [][]byte{hdr, payload}
	b.ReportAllocs()
	b.SetBytes(8192 + 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Buffer.Reset()
		if _, _, err := cw.WriteSegments(segs); err != nil {
			b.Fatal(err)
		}
	}
}

// readReplyEncoder builds the encoder state a READ reply has at the
// moment sunrpc hands it to the transport: owned RPC/NFS headers plus
// a borrowed 8KB data block.
func readReplyEncoder(e *xdr.Encoder, data []byte) {
	e.Reset()
	e.SetGather(true)
	e.PutUint32(7)    // xid
	e.PutUint32(1)    // msgReply
	e.PutUint32(0)    // accepted
	e.PutUint32(0)    // verf flavor
	e.PutUint32(0)    // verf len
	e.PutUint32(0)    // accept success
	e.PutUint32(0)    // status OK
	e.PutOpaque(data) // the borrowed payload
}

// BenchmarkReadReplyGather measures the full reply wire path an 8KB
// READ takes with gather on: record marking via WriteRecordEncoder
// straight into the secure channel's fused seal.
func BenchmarkReadReplyGather(b *testing.B) {
	cw, _, wire := gatherPair(b)
	data := make([]byte, 8192)
	e := xdr.GetEncoder()
	defer xdr.PutEncoder(e)
	b.ReportAllocs()
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Buffer.Reset()
		readReplyEncoder(e, data)
		if err := sunrpc.WriteRecordEncoder(cw, e); err != nil {
			b.Fatal(err)
		}
	}
}

// The end-to-end gathered reply path — encode with a borrowed payload,
// frame, seal, transport — must be allocation-free. Hard fail.
func TestReadReplyGatherZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	cw, _, wire := gatherPair(t)
	data := make([]byte, 8192)
	e := xdr.GetEncoder()
	defer xdr.PutEncoder(e)
	readReplyEncoder(e, data)
	if err := sunrpc.WriteRecordEncoder(cw, e); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		wire.Buffer.Reset()
		readReplyEncoder(e, data)
		if err := sunrpc.WriteRecordEncoder(cw, e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("gathered reply path allocated %.1f times per record, want 0", allocs)
	}
}
