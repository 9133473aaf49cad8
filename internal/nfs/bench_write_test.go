package nfs

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/vfs"
)

// benchWritePair is newPair for benchmarks: a server and client joined
// by an in-process pipe, with an 8 KB-chunk test file created.
func benchWritePair(b *testing.B) (*Client, FH) {
	b.Helper()
	fs := vfs.New()
	srv := NewServer(fs, ServerConfig{})
	c1, c2 := net.Pipe()
	sess := srv.ServeConn(c2)
	b.Cleanup(func() { sess.Close() })
	cl := Dial(c1, ClientConfig{Auth: rootAuth})
	b.Cleanup(func() { cl.Close() })
	root, _, err := cl.MountRoot()
	if err != nil {
		b.Fatal(err)
	}
	fh, _, err := cl.Create(root, "bench.bin", 0o644, true)
	if err != nil {
		b.Fatal(err)
	}
	return cl, fh
}

// BenchmarkWritePathSerial measures one synchronous unstable 8 KB
// WRITE RPC round trip — the per-chunk cost the pre-pipeline client
// paid, and the client-side allocation budget of the write path
// (pooled wire buffers keep it flat).
func BenchmarkWritePathSerial(b *testing.B) {
	cl, fh := benchWritePair(b)
	payload := make([]byte, 8192)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Write(fh, 0, payload, Unstable); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePathPipelined measures the same WRITE with a window of
// 8 in flight — the write-behind shape: WriteStart serializes and
// sends, the future collects the reply a window later.
func BenchmarkWritePathPipelined(b *testing.B) {
	cl, fh := benchWritePair(b)
	payload := make([]byte, 8192)
	const window = 8 // the client's default write-behind depth
	fins := make([]func() (uint32, uint64, error), 0, window)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(fins) == window {
			if _, _, err := fins[0](); err != nil {
				b.Fatal(err)
			}
			fins = fins[1:]
		}
		fin, err := cl.WriteStart(fh, uint64(i%window)*8192, payload, Unstable)
		if err != nil {
			b.Fatal(err)
		}
		fins = append(fins, fin)
	}
	for _, fin := range fins {
		if _, _, err := fin(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePathSyncBatch measures a whole write-behind batch the
// way Sync issues it: 8 pipelined unstable WRITEs followed by one
// COMMIT covering them.
func BenchmarkWritePathSyncBatch(b *testing.B) {
	cl, fh := benchWritePair(b)
	payload := make([]byte, 8192)
	const window = 8 // the client's default write-behind depth
	b.ReportAllocs()
	b.SetBytes(int64(len(payload) * window))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var fins [window]func() (uint32, uint64, error)
		for j := 0; j < window; j++ {
			fin, err := cl.WriteStart(fh, uint64(j)*8192, payload, Unstable)
			if err != nil {
				b.Fatal(err)
			}
			fins[j] = fin
		}
		for _, fin := range fins {
			if _, _, err := fin(); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := cl.Commit(fh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForgetDirectory measures what one directory invalidation
// costs a client that knows 10 000 names in that directory and 10 000
// names elsewhere (each with cached attributes and an access entry):
// the record table makes it the deletion of one record, where the flat
// maps scanned every cached name and every access entry under the
// write lock. Rebuilding the directory is outside the timer.
func BenchmarkForgetDirectory(b *testing.B) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	cl := Dial(c1, ClientConfig{UseLeases: true, AccessCache: true})
	defer cl.Close()
	const n = 10000
	grant := &Fattr{Type: TypeReg, LeaseMS: 60000}
	dir, other := FH("the-directory-being-invalidated"), FH("some-other-directory")
	fill := func(d FH, tag string) {
		fresh, now := cl.core.lockSince(cl.core.invalEpoch.Load())
		for i := 0; i < n; i++ {
			fh := FH(fmt.Sprintf("%s-child-handle-%08d", tag, i))
			cl.rememberLocked(fh, grant, now)
			r := cl.core.recFor(fh)
			r.access = append(r.access[:0], accessEntry{expires: now.Add(time.Minute)})
			cl.bindLocked(d, fmt.Sprintf("name-%08d", i), fh, grant, fresh, now)
		}
		cl.core.mu.Unlock()
	}
	fill(other, "other")
	fill(dir, "dir") // brings the table to its steady size: no sweep falls inside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill(dir, "dir")
		b.StartTimer()
		cl.core.forget(dir)
	}
}
