// Package slab is the buffer memory of the client's write-behind: a
// pool of fixed-size buffers cut from 1 MiB slabs. On unix the slabs
// are anonymous memory mapped outside the Go heap (slab_mmap.go), so
// the bytes count once toward RSS and not at all toward the GC's
// goal, which is twice the live heap. Race
// builds and platforms without mmap take the slabs from the heap
// (slab_heap.go), and race builds poison every returned buffer.
//
// The pool keeps one invariant: a slab is unmapped only when none of
// its buffers is live. A buffer therefore stays valid from Get to Put
// whatever happens to the pool in between, Close included.
//
// Retention follows two rules, with no knob. When the last live buffer
// comes back (the pool drains), the pool keeps the slabs that the batch
// which just ended peaked at and unmaps the rest, so a steady workload
// maps its slabs once and a burst is given back when the next, smaller
// batch drains. At the second GC cycle in a row in which the pool
// handed out no buffer, it unmaps every slab none of whose buffers is
// live, as sync.Pool frees idle heap objects, so a pool that goes quiet
// gives back everything but the slabs its holders still use, drained
// or not. Close unmaps every free slab, and the rest once the last
// buffer comes back.
package slab

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// SlabBytes is the size of one slab, the unit the pool maps and
// unmaps.
const SlabBytes = 1 << 20

// ErrClosed is what Get returns once the pool is closed.
var ErrClosed = errors.New("slab: pool closed")

// Pool hands out buffers of one size. It is safe for concurrent use.
type Pool struct {
	size int

	mu      sync.Mutex
	slabs   [][]byte // mapped
	free    [][]byte // the last buffer returned goes out first
	live    int      // buffers handed out and not yet returned
	peak    int      // most buffers live at once since the pool last drained
	busy    bool     // a buffer was handed out since the last GC cycle
	quiet   int      // GC cycles in a row that handed out no buffer
	ticking bool     // a gcTick is armed
	closed  bool

	mapped atomic.Uint64 // bytes of the slabs in slabs
}

// New returns an empty pool of size-byte buffers; size must divide
// SlabBytes. Nothing is mapped until the first Get.
func New(size int) *Pool {
	if size <= 0 || SlabBytes%size != 0 {
		panic(fmt.Sprintf("slab: buffer size %d does not divide a %d-byte slab", size, SlabBytes))
	}
	return &Pool{size: size}
}

// Get returns a buffer of the pool's size whose contents are
// arbitrary, mapping a new slab when no buffer is free. The caller owns
// it until Put.
func (p *Pool) Get() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if len(p.free) == 0 {
		if err := p.grow(); err != nil {
			return nil, err
		}
	}
	n := len(p.free) - 1
	buf := p.free[n]
	p.free = p.free[:n]
	p.live++
	p.peak = max(p.peak, p.live)
	p.busy = true
	return buf, nil
}

// grow maps one slab and puts its buffers on the free list, the first
// buffer on top, so a pool that only ever holds a few buffers touches
// only the start of its slab.
func (p *Pool) grow() error {
	mem, err := mapSlab(SlabBytes)
	if err != nil {
		return fmt.Errorf("slab: map %d bytes: %w", SlabBytes, err)
	}
	p.mapped.Add(SlabBytes)
	p.slabs = append(p.slabs, mem)
	for off := SlabBytes - p.size; off >= 0; off -= p.size {
		p.free = append(p.free, mem[off:off+p.size:off+p.size])
	}
	if !p.ticking {
		p.ticking = true
		runtime.SetFinalizer(&gcTick{p}, (*gcTick).run)
	}
	return nil
}

// Put returns a buffer that Get handed out. The caller must not touch
// it afterwards.
func (p *Pool) Put(buf []byte) {
	buf = buf[:p.size]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == 0 {
		panic("slab: Put with no buffer live")
	}
	poison(buf)
	p.live--
	p.free = append(p.free, buf)
	if p.live > 0 {
		return
	}
	keep := 0
	if !p.closed {
		keep = (p.peak*p.size + SlabBytes - 1) / SlabBytes
	}
	p.peak = 0
	p.release(keep) //nolint:errcheck // the gauge keeps counting a slab munmap refused
}

// gcTick is a sentinel that nothing references: its finalizer runs
// once per GC cycle and re-arms it for as long as the pool holds slabs
// and is open.
type gcTick struct{ p *Pool }

func (t *gcTick) run() {
	if t.p.tick() {
		runtime.SetFinalizer(t, (*gcTick).run)
	}
}

// tick counts one GC cycle and, at the second quiet one in a row,
// releases the free slabs. It reports whether to count the next cycle.
func (p *Pool) tick() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.slabs) == 0 {
		p.ticking = false
		return false
	}
	if p.busy {
		p.busy, p.quiet = false, 0
		return true
	}
	if p.quiet++; p.quiet >= 2 {
		p.release(0) //nolint:errcheck // the gauge keeps counting a slab munmap refused
	}
	if len(p.slabs) == 0 {
		p.ticking = false
		return false
	}
	return true
}

// release unmaps every slab all of whose buffers are on the free list,
// but the first keep slabs, and takes their buffers off it. A slab
// munmap refuses is dropped from the pool but stays counted in Mapped.
func (p *Pool) release(keep int) error {
	per := SlabBytes / p.size
	if len(p.slabs) <= keep || len(p.free) < per {
		return nil // no slab to give back
	}
	slabOf := make(map[*byte]int, len(p.slabs)*per)
	for i, s := range p.slabs {
		for off := 0; off < len(s); off += p.size {
			slabOf[&s[off]] = i
		}
	}
	freeIn := make([]int, len(p.slabs))
	for _, b := range p.free {
		i, ok := slabOf[&b[0]]
		if !ok {
			panic("slab: a buffer this pool did not hand out was returned to it")
		}
		freeIn[i]++
	}
	for i := range min(keep, len(freeIn)) {
		freeIn[i] = 0 // kept: counts as not wholly free
	}
	kept := p.free[:0]
	for _, b := range p.free {
		if freeIn[slabOf[&b[0]]] < per {
			kept = append(kept, b)
		}
	}
	clear(p.free[len(kept):])
	p.free = kept
	var errs []error
	slabs := p.slabs[:0]
	for i, s := range p.slabs {
		if freeIn[i] < per {
			slabs = append(slabs, s)
			continue
		}
		if err := unmapSlab(s); err != nil {
			errs = append(errs, fmt.Errorf("slab: unmap: %w", err))
			continue
		}
		p.mapped.Add(^uint64(SlabBytes - 1))
	}
	clear(p.slabs[len(slabs):])
	p.slabs = slabs
	return errors.Join(errs...)
}

// Close refuses every later Get and unmaps every free slab; a slab
// with a live buffer is unmapped once the pool's last buffer comes
// back. Closing again is a no-op.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	return p.release(0)
}

// Mapped returns the bytes of slab memory the pool holds. It changes
// only after the mmap or munmap it reports.
func (p *Pool) Mapped() uint64 { return p.mapped.Load() }
