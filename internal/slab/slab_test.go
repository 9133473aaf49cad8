package slab

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// live returns how many buffers are handed out and not yet returned.
func live(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

const bufSize = 8192

const perSlab = SlabBytes / bufSize

// getN takes n buffers from p.
func getN(t *testing.T, p *Pool, n int) [][]byte {
	t.Helper()
	bufs := make([][]byte, n)
	for i := range bufs {
		b, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != bufSize || cap(b) != bufSize {
			t.Fatalf("buffer %d: len %d cap %d, want %d", i, len(b), cap(b), bufSize)
		}
		bufs[i] = b
	}
	return bufs
}

func putAll(p *Pool, bufs [][]byte) {
	for _, b := range bufs {
		p.Put(b)
	}
}

// TestMapsOnDemand: nothing is mapped before the first Get, and a new
// slab only when every buffer of the mapped ones is live.
func TestMapsOnDemand(t *testing.T) {
	p := New(bufSize)
	if m := p.Mapped(); m != 0 {
		t.Fatalf("mapped %d before any Get", m)
	}
	bufs := getN(t, p, perSlab)
	if m := p.Mapped(); m != SlabBytes {
		t.Fatalf("mapped %d with one slab's buffers live, want %d", m, SlabBytes)
	}
	bufs = append(bufs, getN(t, p, 1)...)
	if m := p.Mapped(); m != 2*SlabBytes {
		t.Fatalf("mapped %d after one buffer more, want %d", m, 2*SlabBytes)
	}
	if n := live(p); n != perSlab+1 {
		t.Fatalf("live %d, want %d", n, perSlab+1)
	}
	// Distinct, non-overlapping buffers: a write to one shows in no other.
	for i, b := range bufs {
		for j := range b {
			b[j] = byte(i)
		}
	}
	for i, b := range bufs {
		if !bytes.Equal(b, bytes.Repeat([]byte{byte(i)}, bufSize)) {
			t.Fatalf("buffer %d overlaps another", i)
		}
	}
	putAll(p, bufs)
	if n := live(p); n != 0 {
		t.Fatalf("live %d after every Put", n)
	}
}

// TestSmallUseReusesOneBuffer: a pool that holds one buffer at a time
// hands out the same one, the first of its one slab, so it touches the
// start of that slab only.
func TestSmallUseReusesOneBuffer(t *testing.T) {
	p := New(bufSize)
	var first *byte
	for i := range 100 {
		b := getN(t, p, 1)[0]
		if i == 0 {
			first = &b[0]
			if first != &p.slabs[0][0] {
				t.Fatal("the first buffer is not the start of the slab")
			}
		} else if &b[0] != first {
			t.Fatalf("Get %d handed out another buffer", i)
		}
		p.Put(b)
	}
	if m := p.Mapped(); m != SlabBytes {
		t.Fatalf("mapped %d, want one slab", m)
	}
}

// manualPool returns a pool whose GC cycles are the test's calls to
// tick: no sentinel is armed, so a collection the runtime starts on
// its own counts nothing.
func manualPool() *Pool {
	p := New(bufSize)
	p.ticking = true
	return p
}

// TestSteadyBatchesMapOnce: batches of the same size, each returned
// whole, with GC cycles running while they do, keep the slabs the
// first one mapped.
func TestSteadyBatchesMapOnce(t *testing.T) {
	p := manualPool()
	putAll(p, getN(t, p, 3*perSlab))
	kept := slices.Clone(p.slabs)
	for round := range 5 {
		var bufs [][]byte
		for range 3 {
			bufs = append(bufs, getN(t, p, perSlab)...)
			p.tick()
		}
		if m := p.Mapped(); m != 3*SlabBytes {
			t.Fatalf("round %d: mapped %d, want %d", round, m, 3*SlabBytes)
		}
		putAll(p, bufs)
		p.tick() // the cycle in which the batch was handed back
		if len(p.slabs) != len(kept) {
			t.Fatalf("round %d: %d slabs, want %d", round, len(p.slabs), len(kept))
		}
		for i, s := range p.slabs {
			if &s[0] != &kept[i][0] {
				t.Fatalf("round %d: slab %d was remapped", round, i)
			}
		}
	}
}

// TestDrainKeepsThePeak: when the pool drains it keeps what the batch
// that just ended peaked at and unmaps the rest, so a burst is given
// back when a smaller batch drains.
func TestDrainKeepsThePeak(t *testing.T) {
	p := manualPool()
	putAll(p, getN(t, p, 4*perSlab))
	if m := p.Mapped(); m != 4*SlabBytes {
		t.Fatalf("mapped %d after a 4-slab batch, want %d", m, 4*SlabBytes)
	}
	// A batch peaking at a slab and a half keeps two.
	putAll(p, getN(t, p, perSlab+perSlab/2))
	if m := p.Mapped(); m != 2*SlabBytes {
		t.Fatalf("mapped %d after a 1.5-slab batch, want %d", m, 2*SlabBytes)
	}
	// The free list holds only buffers of the kept slabs: taking them
	// all maps nothing, and writing them faults nothing.
	bufs := getN(t, p, 2*perSlab)
	if m := p.Mapped(); m != 2*SlabBytes {
		t.Fatalf("mapped %d with the two kept slabs' buffers live, want %d", m, 2*SlabBytes)
	}
	for _, b := range bufs {
		b[0], b[bufSize-1] = 1, 1
	}
	putAll(p, bufs)
	putAll(p, getN(t, p, 1))
	if m := p.Mapped(); m != SlabBytes {
		t.Fatalf("mapped %d after a one-buffer batch, want one slab", m)
	}
}

// TestQuietPoolReleasesFreeSlabs: at the second GC cycle in a row in
// which the pool handed out nothing, every slab with no live buffer is
// unmapped, even though a holder keeps one buffer out and the pool
// never drains; the held buffer stays valid and its slab serves the
// next Gets.
func TestQuietPoolReleasesFreeSlabs(t *testing.T) {
	p := manualPool()
	bufs := getN(t, p, 4*perSlab)
	held := bufs[0]
	putAll(p, bufs[1:])
	p.tick() // the cycle that handed the batch out
	p.tick() // quiet once: nothing yet
	if m := p.Mapped(); m != 4*SlabBytes {
		t.Fatalf("mapped %d after one quiet cycle, want %d", m, 4*SlabBytes)
	}
	p.tick()
	if m := p.Mapped(); m != SlabBytes {
		t.Fatalf("mapped %d after two quiet cycles with one buffer live, want one slab", m)
	}
	for i := range held {
		held[i] = 0x5A // would fault were its slab unmapped
	}
	// The free list holds only the kept slab's buffers.
	bufs = getN(t, p, perSlab-1)
	if m := p.Mapped(); m != SlabBytes {
		t.Fatalf("mapped %d with the kept slab's buffers live, want %d", m, SlabBytes)
	}
	for _, b := range bufs {
		if &b[0] == &held[0] {
			t.Fatal("the held buffer was handed out again")
		}
	}
	putAll(p, append(bufs, held))
	p.tick() // the cycle that handed those out
	p.tick()
	p.tick()
	if m := p.Mapped(); m != 0 {
		t.Fatalf("mapped %d after two quiet cycles with nothing live, want 0", m)
	}
}

// TestGCCyclesReleaseQuietSlabs: the pool counts real GC cycles, so an
// idle pool gives back its free slabs without any call into it.
func TestGCCyclesReleaseQuietSlabs(t *testing.T) {
	p := New(bufSize)
	bufs := getN(t, p, 3*perSlab)
	putAll(p, bufs[1:])
	for deadline := time.Now().Add(5 * time.Second); p.Mapped() != SlabBytes; {
		if time.Now().After(deadline) {
			t.Fatalf("mapped %d long after the pool went quiet, want one slab", p.Mapped())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	p.Put(bufs[0])
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnmapsOnlyFreeSlabs: Close unmaps the free slabs at once
// and a slab with a live buffer when its last buffer comes back; the
// live buffer stays usable until then, and Get fails after Close.
func TestCloseUnmapsOnlyFreeSlabs(t *testing.T) {
	p := New(bufSize)
	bufs := getN(t, p, 2*perSlab)
	held := bufs[len(bufs)-1] // a buffer of the second slab
	putAll(p, bufs[:len(bufs)-1])
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if m := p.Mapped(); m != SlabBytes {
		t.Fatalf("mapped %d after Close with one buffer live, want one slab", m)
	}
	if _, err := p.Get(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v, want %v", err, ErrClosed)
	}
	for i := range held {
		held[i] = 0x5A // would fault were its slab unmapped
	}
	p.Put(held)
	if m := p.Mapped(); m != 0 {
		t.Fatalf("mapped %d once the last buffer came back, want 0", m)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPutWithNothingLivePanics: a Put the pool has no live buffer
// for (a second Put of its only buffer, or any Put into a fresh pool)
// is a caller bug, and counting it would break the unmap invariant, so
// the pool refuses it loudly.
func TestPutWithNothingLivePanics(t *testing.T) {
	mustPanic := func(name string, put func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s Put did not panic", name)
			}
		}()
		put()
	}
	mustPanic("fresh pool", func() { New(bufSize).Put(make([]byte, bufSize)) })
	p := New(bufSize)
	b := getN(t, p, 1)[0]
	p.Put(b)
	mustPanic("second", func() { p.Put(b) })
}

// TestConcurrentGetPutClose: goroutines take buffers, write and check
// a pattern, and return them while another counts GC cycles as fast as
// it can, so quiet ones release slabs under them, and while Close runs.
// Every buffer reads back what its holder wrote, every Get after Close
// fails, and the pool ends with nothing mapped. A write to an unmapped
// slab would fault the test binary.
func TestConcurrentGetPutClose(t *testing.T) {
	p := New(bufSize)
	var wg sync.WaitGroup
	closed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-closed:
				return
			default:
				p.tick()
			}
		}
	}()
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [][]byte
			for i := 0; ; i++ {
				b, err := p.Get()
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Error(err)
					}
					break
				}
				for j := range b {
					b[j] = byte(g + i)
				}
				held = append(held, b)
				if len(held) == 40 {
					for k, h := range held {
						if h[0] != byte(g+i-len(held)+1+k) || h[bufSize-1] != h[0] {
							t.Errorf("goroutine %d: a held buffer changed under it", g)
						}
						p.Put(h)
					}
					held = held[:0]
				}
			}
			<-closed
			putAll(p, held)
		}()
	}
	for p.Mapped() < 2*SlabBytes {
		b := getN(t, p, 1)[0]
		p.Put(b)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	close(closed)
	wg.Wait()
	if m, n := p.Mapped(), live(p); m != 0 || n != 0 {
		t.Fatalf("after Close and every Put: mapped %d, live %d", m, n)
	}
}
