package bench

import (
	"fmt"
	"time"

	"repro/internal/crypto/prng"
)

// Result is one measured phase on one stack.
type Result struct {
	Stack   string
	Phase   string
	Elapsed time.Duration
	// Bytes moved, when the phase is a transfer (0 otherwise).
	Bytes int64
	// RPCs that crossed the wire during the phase.
	RPCs uint64
}

// MBps returns throughput in Mbyte/s for transfer phases.
func (r Result) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// timed runs f and captures elapsed time and RPC delta.
func timed(st Stack, phase string, f func() error) (Result, error) {
	before := st.Stats().Calls
	start := time.Now()
	err := f()
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", st.Name(), phase, err)
	}
	return Result{
		Stack: st.Name(), Phase: phase, Elapsed: elapsed,
		RPCs: st.Stats().Calls - before,
	}, nil
}

// ---------------------------------------------------------------------
// Micro-benchmarks (Figure 5).

// LatencyMicro measures the paper's latency micro-benchmark: an
// unauthorized chown — a file system operation that always requires a
// remote RPC but never a disk access. It returns the per-operation
// latency.
func LatencyMicro(st Stack, iters int) (Result, error) {
	if err := st.WriteFile("latency-probe", []byte("x")); err != nil {
		return Result{}, err
	}
	// Warm caches and connections.
	for i := 0; i < 3; i++ {
		if err := st.ChownFail("latency-probe"); err != nil {
			return Result{}, err
		}
	}
	res, err := timed(st, "latency", func() error {
		for i := 0; i < iters; i++ {
			if err := st.ChownFail("latency-probe"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res.Elapsed /= time.Duration(iters)
	return res, nil
}

// ThroughputMicro measures streaming read bandwidth: sequentially
// reading a sparse file (no disk access) in 8 KB chunks, as the paper
// does with a sparse 1,000 Mbyte file. size is the sparse file size.
func ThroughputMicro(st Stack, size int64) (Result, error) {
	const chunk = 8192
	if err := st.WriteFile("sparse.bin", nil); err != nil {
		return Result{}, err
	}
	if err := st.Truncate("sparse.bin", uint64(size)); err != nil {
		return Result{}, err
	}
	f, err := st.Open("sparse.bin")
	if err != nil {
		return Result{}, err
	}
	buf := make([]byte, chunk)
	res, err := timed(st, "throughput", func() error {
		for off := int64(0); off < size; off += chunk {
			if _, err := f.ReadAt(buf, uint64(off)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res.Bytes = size
	return res, nil
}

// ---------------------------------------------------------------------
// Modified Andrew Benchmark (Figure 6).

// mabSource yields the benchmark's synthetic source tree:
// deterministic pseudo-text so the search phase has real work.
type mabTree struct {
	dirs  []string
	files map[string][]byte
}

func genMABTree() mabTree {
	g := prng.NewSeeded([]byte("mab-tree"))
	t := mabTree{files: make(map[string][]byte)}
	t.dirs = []string{"mab", "mab/src", "mab/include", "mab/lib", "mab/doc"}
	// ~70 small files, a few KB each — the phase-2 copy set.
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("mab/src/file%02d.c", i)
		t.files[name] = genSource(g, 2000+int(g.Uint32()%2000))
	}
	for i := 0; i < 15; i++ {
		name := fmt.Sprintf("mab/include/hdr%02d.h", i)
		t.files[name] = genSource(g, 800+int(g.Uint32()%800))
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("mab/doc/notes%d.txt", i)
		t.files[name] = genSource(g, 4000)
	}
	return t
}

// genSource emits n bytes of word-like text that never contains the
// search phase's needle.
func genSource(g *prng.Generator, n int) []byte {
	words := []string{"int", "return", "struct", "buffer", "cache", "lease",
		"server", "client", "handle", "commit", "offset{}", "attr;\n"}
	out := make([]byte, 0, n+8)
	for len(out) < n {
		out = append(out, words[g.Uint32()%uint32(len(words))]...)
		out = append(out, ' ')
	}
	return out
}

// compileBurn models the CPU work of compiling one translation unit.
func compileBurn(d time.Duration) {
	deadline := time.Now().Add(d)
	x := uint64(1)
	for time.Now().Before(deadline) {
		x = x*6364136223846793005 + 1442695040888963407
	}
	_ = x
}

// MABPhases runs the five MAB phases on st and returns one Result per
// phase plus the total. burn is the CPU time compiling one source file
// costs.
func MABPhases(st Stack, burn time.Duration) ([]Result, error) {
	tree := genMABTree()
	var results []Result

	// Phase 1: create directories.
	r, err := timed(st, "directories", func() error {
		for _, d := range tree.dirs {
			if err := st.Mkdir(d); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results = append(results, r)

	// Phase 2: copy the files into the tree.
	names := sortedKeys(tree.files)
	r, err = timed(st, "copy", func() error {
		for _, name := range names {
			if err := st.WriteFile(name, tree.files[name]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results = append(results, r)

	// Phase 3: stat every file (attribute collection).
	r, err = timed(st, "attributes", func() error {
		for pass := 0; pass < 4; pass++ {
			for _, name := range names {
				if err := st.Stat(name); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results = append(results, r)

	// Phase 4: search every byte for a string that does not appear.
	r, err = timed(st, "search", func() error {
		for _, name := range names {
			data, err := st.ReadFile(name)
			if err != nil {
				return err
			}
			if contains(data, []byte("no-such-needle")) {
				return fmt.Errorf("needle unexpectedly found")
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results = append(results, r)

	// Phase 5: compile — read each source, burn CPU, write an
	// object file.
	r, err = timed(st, "compile", func() error {
		for _, name := range names {
			if len(name) < 2 || name[len(name)-2:] != ".c" {
				continue
			}
			data, err := st.ReadFile(name)
			if err != nil {
				return err
			}
			compileBurn(burn)
			obj := name[:len(name)-2] + ".o"
			if err := st.WriteFile(obj, append(data, data...)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results = append(results, r)

	total := Result{Stack: st.Name(), Phase: "total"}
	for _, p := range results {
		total.Elapsed += p.Elapsed
		total.RPCs += p.RPCs
	}
	results = append(results, total)
	return results, nil
}

func sortedKeys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func contains(data, needle []byte) bool {
	for i := 0; i+len(needle) <= len(data); i++ {
		match := true
		for j := range needle {
			if data[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Kernel compile (Figure 7).

// pageCache models the kernel buffer cache that sat above both sfscd
// and the NFS client in the paper's setup: file data is cached after
// the first read, but every subsequent open revalidates with a stat
// (close-to-open consistency). On plain NFS every revalidation is a
// GETATTR over the wire; with the SFS lease extension it is a local
// cache hit — the mechanism that lets SFS beat NFS 3 over TCP on the
// paper's kernel compile despite higher raw latency.
type pageCache struct {
	st      Stack
	entries map[string]pageEntry
}

type pageEntry struct {
	data  []byte
	mtime int64
}

func newPageCache(st Stack) *pageCache {
	return &pageCache{st: st, entries: make(map[string]pageEntry)}
}

// open returns the file's contents, revalidating a cached copy by
// modification time.
func (c *pageCache) open(path string) ([]byte, error) {
	mtime, err := c.st.StatMtime(path)
	if err != nil {
		return nil, err
	}
	if e, ok := c.entries[path]; ok && e.mtime == mtime {
		return e.data, nil
	}
	data, err := c.st.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c.entries[path] = pageEntry{data: data, mtime: mtime}
	return data, nil
}

// Header count in the synthetic kernel source tree; every unit
// includes a large subset, as real kernel sources do.
const compileHeaders = 40

// CompileWorkload models compiling the GENERIC FreeBSD kernel: units
// translation units, each of which opens its source plus the shared
// header set through the page cache, burns CPU, and writes an object
// file; finally the objects are linked into a kernel image. burn is
// the CPU time per unit — with units=100 and burn=110ms the Local
// stack lands near 1/10th of the paper's 140 s run.
func CompileWorkload(st Stack, units int, burn time.Duration) (Result, error) {
	g := prng.NewSeeded([]byte("kernel"))
	if err := st.Mkdir("kernel"); err != nil {
		return Result{}, err
	}
	if err := st.Mkdir("kernel/sys"); err != nil {
		return Result{}, err
	}
	if err := st.Mkdir("kernel/compile"); err != nil {
		return Result{}, err
	}
	headers := make([]string, compileHeaders)
	for i := range headers {
		headers[i] = fmt.Sprintf("kernel/sys/hdr%02d.h", i)
		if err := st.WriteFile(headers[i], genSource(g, 1500)); err != nil {
			return Result{}, err
		}
	}
	srcs := make([]string, units)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("kernel/unit%03d.c", i)
		if err := st.WriteFile(srcs[i], genSource(g, 8000)); err != nil {
			return Result{}, err
		}
	}
	cache := newPageCache(st)
	res, err := timed(st, "compile", func() error {
		var objs []string
		for _, src := range srcs {
			data, err := cache.open(src)
			if err != nil {
				return err
			}
			// Preprocess: open every header through the page
			// cache (data cached after the first unit; attribute
			// revalidation on every open).
			for _, h := range headers {
				if _, err := cache.open(h); err != nil {
					return err
				}
			}
			compileBurn(burn)
			obj := "kernel/compile/" + src[len("kernel/"):len(src)-2] + ".o"
			if err := st.WriteFile(obj, data[:len(data)/2]); err != nil {
				return err
			}
			objs = append(objs, obj)
		}
		// Link: read all objects, write the kernel.
		var image []byte
		for _, obj := range objs {
			data, err := cache.open(obj)
			if err != nil {
				return err
			}
			image = append(image, data[:256]...)
		}
		return st.WriteFile("kernel/compile/kernel", image)
	})
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Sprite LFS benchmarks (Figures 8 and 9).

// SpriteSmall runs the small-file benchmark: create, read, and unlink
// n files of size bytes each, flushing after the write phase.
func SpriteSmall(st Stack, n, size int) ([]Result, error) {
	if err := st.Mkdir("small"); err != nil {
		return nil, err
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("small/f%04d", i)
	}
	var results []Result
	r, err := timed(st, "create", func() error {
		for _, name := range names {
			if err := st.WriteFile(name, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results = append(results, r)

	r, err = timed(st, "read", func() error {
		for _, name := range names {
			if _, err := st.ReadFile(name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results = append(results, r)

	r, err = timed(st, "unlink", func() error {
		for _, name := range names {
			if err := st.Remove(name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results = append(results, r)
	return results, nil
}

// SpriteLarge runs the large-file benchmark on a file of size bytes
// in 8 KB chunks: sequential write, sequential read, random write,
// random read, sequential read again; data is flushed after each
// write phase.
func SpriteLarge(st Stack, size int64) ([]Result, error) {
	const chunk = 8192
	g := prng.NewSeeded([]byte("sprite-large"))
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	nChunks := size / chunk
	// Random offsets: a permutation so every chunk is touched once.
	perm := make([]int64, nChunks)
	for i := range perm {
		perm[i] = int64(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(g.Uint32() % uint32(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}

	f, err := st.Create("large.bin")
	if err != nil {
		return nil, err
	}
	var results []Result
	phases := []struct {
		name string
		run  func() error
	}{
		{"seq write", func() error {
			for off := int64(0); off < size; off += chunk {
				if _, err := f.WriteAt(buf, uint64(off)); err != nil {
					return err
				}
			}
			return f.Sync()
		}},
		{"seq read", func() error {
			for off := int64(0); off < size; off += chunk {
				if _, err := f.ReadAt(buf, uint64(off)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"rand write", func() error {
			for _, i := range perm {
				if _, err := f.WriteAt(buf, uint64(i*chunk)); err != nil {
					return err
				}
			}
			return f.Sync()
		}},
		{"rand read", func() error {
			for _, i := range perm {
				if _, err := f.ReadAt(buf, uint64(i*chunk)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"seq read again", func() error {
			for off := int64(0); off < size; off += chunk {
				if _, err := f.ReadAt(buf, uint64(off)); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, ph := range phases {
		r, err := timed(st, ph.name, ph.run)
		if err != nil {
			return nil, err
		}
		r.Bytes = size
		results = append(results, r)
	}
	return results, nil
}
