package secchan

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sunrpc"
)

// The receive half (DESIGN.md §12 "The receive half"): whatever way
// the transport cuts the byte stream, the channel yields the same
// records, verifies each MAC before releasing a byte of it, and keeps
// its cipher in step with the sender's.

// chunked is a transport that hands out a prepared byte stream in
// pieces of the caller's choosing. next returns the largest piece the
// coming Read may deliver (at least 1).
type chunked struct {
	data []byte
	next func() int
	out  bytes.Buffer // whatever the Conn under test writes
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.data), c.next())
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

func (c *chunked) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *chunked) Close() error                { return nil }

// deliveries are the ways a test cuts the stream: a byte per Read,
// random pieces, and everything the reader has room for at once.
func deliveries(seed int64) map[string]func() int {
	rng := rand.New(rand.NewSource(seed))
	return map[string]func() int{
		"byte":      func() int { return 1 },
		"random":    func() int { return 1 + rng.Intn(3000) },
		"coalesced": func() int { return 1 << 30 },
	}
}

var testKeyCS, testKeySC = bytes.Repeat([]byte{0x11}, keyHalf), bytes.Repeat([]byte{0x22}, keyHalf)

// sealer returns a client-side Conn writing into wire.
func sealer(t testing.TB, wire *bytes.Buffer) *Conn {
	t.Helper()
	c, err := newConn(benchRWC{wire}, testKeyCS, testKeySC, true)
	if err != nil {
		t.Fatal(err)
	}
	if testPlain {
		c.DisableEncryption()
	}
	return c
}

// opener returns the matching server-side Conn reading from raw.
func opener(t testing.TB, raw io.ReadWriteCloser) *Conn {
	t.Helper()
	c, err := newConn(raw, testKeyCS, testKeySC, false)
	if err != nil {
		t.Fatal(err)
	}
	if testPlain {
		c.DisableEncryption()
	}
	return c
}

func pattern(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7) ^ salt
	}
	return p
}

// recordSizes covers the edges: empty, tiny, either side of the
// starting buffer size, an 8 KiB payload plus headers, just under and
// just over the buffer's cap, and small ones after a big one so that
// several coalesce and one straddles the end of the buffer.
var recordSizes = []int{0, 1, 100, recvBufMin - 24, recvBufMin, 8192 + 96, 3, 0, 40,
	recvBufMax - 24, recvBufMax - 23, 70000, 5, 600, 600, 600, 600, 600, 600, 2}

// testPlain puts the Conns sealer and opener make in MAC-only mode;
// bothModes sets it around each (sequential) sub-test.
var testPlain bool

func bothModes(t *testing.T, f func(t *testing.T)) {
	for _, enc := range []bool{true, false} {
		name := "encrypted"
		if !enc {
			name = "mac-only"
		}
		t.Run(name, func(t *testing.T) {
			testPlain = !enc
			defer func() { testPlain = false }()
			f(t)
		})
	}
}

// TestReadChunkingInvariance: the byte stream Read yields does not
// depend on how the transport delivered the ciphertext or how large
// the caller's buffer is.
func TestReadChunkingInvariance(t *testing.T) {
	bothModes(t, func(t *testing.T) {
		var wire bytes.Buffer
		cw := sealer(t, &wire)
		var want []byte
		for i, n := range recordSizes {
			p := pattern(n, byte(i))
			want = append(want, p...)
			if _, err := cw.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		sealed := append([]byte(nil), wire.Bytes()...)
		wire.Reset()
		tail := pattern(77, 0xee)
		if _, err := cw.Write(tail); err != nil {
			t.Fatal(err)
		}
		for name, next := range deliveries(1) {
			for _, bufLen := range []int{1, 7, 600, 100000} {
				raw := &chunked{data: append([]byte(nil), sealed...), next: next}
				sr := opener(t, raw)
				var got []byte
				p := make([]byte, bufLen)
				for len(got) < len(want) {
					n, err := sr.Read(p)
					if err != nil {
						t.Fatalf("%s/buf %d: after %d bytes: %v", name, bufLen, len(got), err)
					}
					got = append(got, p[:n]...)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/buf %d: plaintext differs", name, bufLen)
				}
				// Both ciphers are where the sender's are: the next
				// record opens.
				raw.data = append(raw.data, wire.Bytes()...)
				if n, err := io.ReadFull(sr, p[:min(len(p), len(tail))]); err != nil || !bytes.Equal(p[:n], tail[:n]) {
					t.Fatalf("%s/buf %d: record after the sequence: %v", name, bufLen, err)
				}
			}
		}
	})
}

// nextMessage reads one RPC message the way sunrpc's serve loops do.
func nextMessage(c *Conn) ([]byte, error) {
	rec, ok, err := c.ReadRecord()
	if err != nil || ok {
		return rec, err
	}
	return sunrpc.ReadRecord(c)
}

// TestReadRecordChunkingInvariance: the record source yields the same
// messages however the ciphertext arrived — whole ones straight out of
// the receive buffer, and the shapes it declines (a message in two
// fragments, a message split over two channel records) through Read.
func TestReadRecordChunkingInvariance(t *testing.T) {
	bothModes(t, func(t *testing.T) {
		var wire bytes.Buffer
		cw := sealer(t, &wire)
		var want [][]byte
		for i, n := range recordSizes {
			m := pattern(n, byte(i))
			want = append(want, m)
			if err := sunrpc.WriteRecord(cw, m); err != nil {
				t.Fatal(err)
			}
			switch i {
			case 4: // two fragments inside one channel record
				m := pattern(300, 0x44)
				want = append(want, m)
				framed := append([]byte{0, 0, 0, 100}, m[:100]...)
				framed = append(append(framed, 0x80, 0, 0, 200), m[100:]...)
				if _, err := cw.Write(framed); err != nil {
					t.Fatal(err)
				}
			case 9: // one message split across two channel records
				m := pattern(50, 0x99)
				want = append(want, m)
				framed := append([]byte{0x80, 0, 0, 50}, m...)
				for _, part := range [][]byte{framed[:20], framed[20:]} {
					if _, err := cw.Write(part); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		sealed := append([]byte(nil), wire.Bytes()...)
		for name, next := range deliveries(2) {
			sr := opener(t, &chunked{data: append([]byte(nil), sealed...), next: next})
			for i, w := range want {
				got, err := nextMessage(sr)
				if err != nil {
					t.Fatalf("%s: message %d: %v", name, i, err)
				}
				if !bytes.Equal(got, w) {
					t.Fatalf("%s: message %d (%d bytes) differs", name, i, len(w))
				}
			}
			if _, err := nextMessage(sr); err != io.EOF {
				t.Fatalf("%s: after the last message: %v, want EOF", name, err)
			}
		}
	})
}

// TestReadRecordOwnership: a record handed out by ReadRecord is the
// caller's — later traffic through the same receive buffer does not
// touch it. This is what lets a decoded READ payload alias it for as
// long as the data cache likes.
func TestReadRecordOwnership(t *testing.T) {
	var wire bytes.Buffer
	cw := sealer(t, &wire)
	msgs := [][]byte{pattern(2000, 1), pattern(2000, 2), pattern(9000, 3), pattern(10, 4)}
	for _, m := range msgs {
		if err := sunrpc.WriteRecord(cw, m); err != nil {
			t.Fatal(err)
		}
	}
	sr := opener(t, &chunked{data: wire.Bytes(), next: func() int { return 1 << 30 }})
	var got [][]byte
	for range msgs {
		rec, ok, err := sr.ReadRecord()
		if err != nil || !ok {
			t.Fatalf("ReadRecord: ok=%v err=%v", ok, err)
		}
		got = append(got, rec)
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("record %d changed after later records were read", i)
		}
	}
}

// TestOpenWorkPerRecord: when one transport read brings in k records,
// each is opened by the call that returns it, so the open-work ledger
// read around each call (what srv_open and cli_decode are built from)
// still attributes work per record.
func TestOpenWorkPerRecord(t *testing.T) {
	var wire bytes.Buffer
	cw := sealer(t, &wire)
	const k = 8
	for i := 0; i < k; i++ {
		if err := sunrpc.WriteRecord(cw, pattern(4096, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	reads := 0
	raw := &chunked{data: wire.Bytes(), next: func() int { reads++; return 1 << 30 }}
	sr := opener(t, raw)
	sr.TimeWork()
	for i := 0; i < k; i++ {
		before := sr.OpenWorkNS()
		if _, ok, err := sr.ReadRecord(); err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if sr.OpenWorkNS() == before {
			t.Fatalf("record %d: no open work attributed to the call that returned it", i)
		}
	}
	if reads >= k {
		t.Fatalf("%d transport reads for %d coalesced records", reads, k)
	}
}

// TestReceiveBufferStartsSmall: a channel that only ever carries small
// records — a login's — never holds more than the minimum buffer.
func TestReceiveBufferStartsSmall(t *testing.T) {
	var wire bytes.Buffer
	cw := sealer(t, &wire)
	sr := opener(t, benchRWC{&wire})
	if sr.rbuf != nil {
		t.Fatal("receive buffer allocated before the first read")
	}
	for i := 0; i < 4; i++ {
		if err := sunrpc.WriteRecord(cw, pattern(120, byte(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := nextMessage(sr); err != nil {
			t.Fatal(err)
		}
	}
	if len(sr.rbuf) != recvBufMin {
		t.Fatalf("receive buffer is %d bytes after four small records, want %d", len(sr.rbuf), recvBufMin)
	}
}

func allocatedDuring(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestForgedLengthDoesNotAllocate: ARC4 is malleable, so an attacker
// on the path can turn a record's length into any value before the MAC
// is ever checked. The channel must size nothing from that claim.
func TestForgedLengthDoesNotAllocate(t *testing.T) {
	bothModes(t, func(t *testing.T) {
		for _, deliver := range []int{4, 4 + 100 + 20} { // the header alone; the whole record
			var wire bytes.Buffer
			cw := sealer(t, &wire)
			if _, err := cw.Write(pattern(100, 0)); err != nil {
				t.Fatal(err)
			}
			sealed := wire.Bytes()[:deliver]
			sealed[0] ^= 0x02 // length 100 becomes 32 MiB + 100
			sr := opener(t, &chunked{data: sealed, next: func() int { return 1 << 30 }})
			var err error
			got := allocatedDuring(func() { _, err = sr.Read(make([]byte, 64)) })
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("%d bytes delivered: err = %v, want unexpected EOF", deliver, err)
			}
			if got > 1<<20 {
				t.Fatalf("%d bytes delivered: allocated %d bytes on a forged length", deliver, got)
			}
			if _, again := sr.Read(make([]byte, 64)); again != err {
				t.Fatalf("error not sticky: %v then %v", err, again)
			}
		}
	})
}

// TestBadMACReleasesNothing: a record whose MAC fails leaves no byte
// in the caller's buffer, whichever way it would have been delivered,
// and kills the channel for both Read and ReadRecord.
func TestBadMACReleasesNothing(t *testing.T) {
	bothModes(t, func(t *testing.T) {
		for _, bufLen := range []int{16, 4096} { // record larger than p; record decrypted straight into p
			var wire bytes.Buffer
			cw := sealer(t, &wire)
			if _, err := cw.Write(pattern(200, 0)); err != nil {
				t.Fatal(err)
			}
			sealed := wire.Bytes()
			sealed[len(sealed)-1] ^= 0x80 // last MAC byte
			sr := opener(t, &chunked{data: sealed, next: func() int { return 1 << 30 }})
			p := make([]byte, bufLen)
			n, err := sr.Read(p)
			if n != 0 || !errors.Is(err, ErrBadMAC) {
				t.Fatalf("buf %d: Read = %d, %v; want 0, ErrBadMAC", bufLen, n, err)
			}
			if !bytes.Equal(p, make([]byte, bufLen)) {
				t.Fatalf("buf %d: plaintext of a forged record left in the caller's buffer", bufLen)
			}
			if _, _, err := sr.ReadRecord(); !errors.Is(err, ErrBadMAC) {
				t.Fatalf("buf %d: ReadRecord after a MAC failure: %v", bufLen, err)
			}
		}
	})
}

// TestModeMismatchFailsClosed: when one end skipped encryption and the
// other did not, the first record already fails — its length reads as
// keystream noise, or its MAC does not verify — no plaintext reaches
// the caller, the drop is counted, and the channel stays dead.
func TestModeMismatchFailsClosed(t *testing.T) {
	for _, plainSender := range []bool{true, false} {
		for _, bufLen := range []int{16, 16384} {
			var wire bytes.Buffer
			cw := sealer(t, &wire)
			sr := opener(t, benchRWC{&wire})
			if plainSender {
				cw.DisableEncryption()
			} else {
				sr.DisableEncryption()
			}
			secret := pattern(8192, 0x5a)
			if _, err := cw.Write(secret); err != nil {
				t.Fatal(err)
			}
			drops := StatsSnapshot().MACDrops
			p := make([]byte, bufLen)
			n, err := sr.Read(p)
			if n != 0 || !errors.Is(err, ErrBadMAC) {
				t.Fatalf("plain sender %v, buf %d: Read = %d, %v; want 0, ErrBadMAC", plainSender, bufLen, n, err)
			}
			if !bytes.Equal(p, make([]byte, bufLen)) {
				t.Fatalf("plain sender %v, buf %d: bytes of a mismatched record left in the caller's buffer", plainSender, bufLen)
			}
			if got := StatsSnapshot().MACDrops; got != drops+1 {
				t.Fatalf("plain sender %v: mac drops %d -> %d, want one more", plainSender, drops, got)
			}
			if _, _, err := sr.ReadRecord(); !errors.Is(err, ErrBadMAC) {
				t.Fatalf("plain sender %v: ReadRecord after the mismatch: %v", plainSender, err)
			}
		}
	}
}

// fuzzRecords is the plaintext sequence FuzzConnRead seals: whole RPC
// messages of assorted sizes, one past the receive buffer's cap.
var fuzzRecords = []int{10, 600, 0, 9000, 40, recvBufMax + 100, 7}

// FuzzConnRead feeds a handshaken channel ciphertext with one byte
// flipped and the tail cut, in arbitrary chunking, through an
// arbitrary mix of Read and ReadRecord. Whatever happens it must not
// panic; every byte it releases must belong to a record that arrived
// intact; and once it fails, it fails the same way for ever.
func FuzzConnRead(f *testing.F) {
	f.Add(uint32(0), byte(0), uint32(1<<31), []byte{200}, []byte{0})              // intact, coalesced
	f.Add(uint32(2), byte(0x40), uint32(1<<31), []byte{0}, []byte{1, 0})          // first length flipped
	f.Add(uint32(700), byte(1), uint32(1<<31), []byte{3, 50, 255}, []byte{7})     // a body byte flipped
	f.Add(uint32(0), byte(0), uint32(5000), []byte{17}, []byte{0, 0, 1})          // cut inside the 9000-byte record
	f.Add(uint32(9800), byte(0xff), uint32(1<<31), []byte{255, 255}, []byte{200}) // inside the oversized record
	f.Fuzz(func(t *testing.T, pos uint32, mask byte, cut uint32, chunks, modes []byte) {
		var wire bytes.Buffer
		cw := sealer(t, &wire)
		var ends []int // ends[i]: ciphertext offset just past record i
		var plain [][]byte
		for i, n := range fuzzRecords {
			m := pattern(n, byte(i))
			plain = append(plain, m)
			if err := sunrpc.WriteRecord(cw, m); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, wire.Len())
		}
		sealed := wire.Bytes()
		// intact: how many leading records arrive untouched.
		intact, flipped := len(ends), false
		if p := int(pos % uint32(len(sealed))); mask != 0 {
			sealed[p] ^= mask
			flipped = p < int(cut)
			for i, end := range ends {
				if p < end {
					intact = i
					break
				}
			}
		}
		if int(cut) < len(sealed) {
			sealed = sealed[:cut]
			for i, end := range ends {
				if int(cut) < end {
					intact = min(intact, i)
					break
				}
			}
		}
		ci := 0
		sr := opener(t, &chunked{data: sealed, next: func() int {
			if len(chunks) == 0 {
				return 1 << 30
			}
			ci++
			return 1 + int(chunks[ci%len(chunks)])*37
		}})

		// What the intact records amount to as Read sees them: each
		// message behind its record mark.
		mark := func(m []byte) []byte {
			return []byte{0x80 | byte(len(m)>>24), byte(len(m) >> 16), byte(len(m) >> 8), byte(len(m))}
		}
		var stream []byte
		for _, m := range plain[:intact] {
			stream = append(append(stream, mark(m)...), m...)
		}
		// call makes one Read or ReadRecord, as modes says.
		step := 0
		call := func() (out []byte, err error) {
			var mode byte
			if len(modes) > 0 {
				mode = modes[step%len(modes)]
			}
			step++
			if mode&1 == 0 {
				rec, ok, err := sr.ReadRecord()
				if ok {
					return append(mark(rec), rec...), nil
				}
				if err != nil {
					return nil, err
				}
				// Declined: a Read stopped inside a record. Go on with Read.
			}
			p := make([]byte, 1+int(mode>>1)*9)
			n, err := sr.Read(p)
			return p[:n], err
		}
		var got []byte
		var failed error
		for failed == nil {
			if step > 1<<20 {
				t.Fatal("channel never reached the end of its input")
			}
			out, err := call()
			got = append(got, out...)
			if len(got) > len(stream) || !bytes.Equal(got, stream[:len(got)]) {
				t.Fatalf("released bytes that are not the intact records' (%d intact, %d bytes out)", intact, len(got))
			}
			failed = err
		}
		if failed == io.EOF && (flipped || len(got) != len(stream)) {
			t.Fatalf("clean EOF after %d of %d bytes (byte flipped: %v)", len(got), len(stream), flipped)
		}
		for i := 0; i < 4; i++ {
			if out, err := call(); err != failed || len(out) != 0 {
				t.Fatalf("after failing with %v: %d bytes, %v", failed, len(out), err)
			}
		}
	})
}

// BenchmarkConnReadSmall and BenchmarkConnRead8K measure seal → open
// through the record source: what one RPC message costs the channel on
// the way in, allocation of the caller-owned record included.
func BenchmarkConnReadSmall(b *testing.B) { benchConnRead(b, 120) }
func BenchmarkConnRead8K(b *testing.B)    { benchConnRead(b, 8192+120) }

func benchConnRead(b *testing.B, n int) {
	var wire bytes.Buffer
	cw := sealer(b, &wire)
	sr := opener(b, benchRWC{&wire})
	msg := pattern(n, 0)
	b.ReportAllocs()
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sunrpc.WriteRecord(cw, msg); err != nil {
			b.Fatal(err)
		}
		rec, ok, err := sr.ReadRecord()
		if err != nil || !ok || len(rec) != n {
			b.Fatalf("ReadRecord: %d bytes, ok=%v, err=%v", len(rec), ok, err)
		}
	}
}
