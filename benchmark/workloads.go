package main

// The six workloads. Every one is a closed loop: a caller issues its
// next operation only after the previous one returned. Inputs (names,
// offsets, payload bytes) are generated here from the seed; the
// program under test sees only those inputs.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/vfs"
)

const (
	blockSize = 8192 // the 8 KB NFS 3 transfer size (client wireChunk)

	streamBlocks    = 16384 // 128 MiB: 2x the 64 MiB pager budget, 16x the client data cache
	streamRoundOps  = 8192  // half a pass per round
	metaFiles       = 2000
	metaDirs        = 20
	metaFileBytes   = 1024
	commitClients   = 2
	commitBlocks    = 1024 // 8 MiB file per client
	commitRoundOps  = 1000 // per client
	warmBlocks      = 512  // 4 MiB: half the client data cache
	warmRoundOps    = 1 << 20
	warmBatch       = 256
	loginWorkers    = 2
	loginRoundOps   = 700 // per worker
	loginMaxRetries = 1 << 20
)

// workloadNames is the order results are reported in. BENCHMARK.json
// names all but commit_small: that one waits on fsync, which on the
// sandbox takes 230 to 500 us from one minute to the next, so it runs
// and reports here but no regression driver judges it.
var workloadNames = []string{"stream_read", "stream_write", "meta_small", "commit_small", "warm_read", "login"}

// workload is one booted stack plus the state a workload keeps
// between rounds.
type workload interface {
	// prepare preloads the dataset and opens the handles the rounds
	// use; it is part of set-up time.
	prepare() error
	// round runs one fixed-size round, recording every operation.
	round(rec *recorder) roundResult
	// verify runs the post-run output checks and returns how many
	// checks it made and how many failed. It may shut the stack down.
	verify() (checks, failed int)
	stack() *stack
}

type roundResult struct {
	ops     int    // operations attempted
	failed  int    // operations that errored or returned wrong bytes
	payload uint64 // file bytes moved
	// phases is how many latency samples each phase of the round
	// recorded, in recording order; nil where a round is one phase.
	phases []int
}

// scaled applies -scale to an op or block count, never below min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// fillBlock writes the expected content of one block: a stream keyed
// by (seed, file, block, generation), so a stale, misplaced or torn
// block never compares equal.
func fillBlock(dst []byte, seed, file, bno, gen uint64) {
	x := mix(seed ^ mix(file+1) ^ mix(bno<<20|gen))
	for i := 0; i+8 <= len(dst); i += 8 {
		x = x*6364136223846793005 + 1442695040888963407
		binary.LittleEndian.PutUint64(dst[i:], x^x>>29)
	}
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// preload writes blocks of generation 0 straight into the served file
// system, the way sfssd -seed populates it, and commits them.
func preload(fs *vfs.FS, name string, seed, file uint64, blocks int) error {
	id, _, err := fs.Create(rootCred, fs.Root(), name, 0o644, true)
	if err != nil {
		return err
	}
	buf := make([]byte, blockSize)
	for b := 0; b < blocks; b++ {
		fillBlock(buf, seed, file, uint64(b), 0)
		if _, err := fs.Write(rootCred, id, uint64(b)*blockSize, buf, false); err != nil {
			return err
		}
	}
	return fs.Commit(id)
}

// verifyFile compares every block of name, read straight from the
// file system, with the generation the run last had acknowledged.
func verifyFile(fs *vfs.FS, name string, seed, file uint64, gens []uint32) (checks, failed int) {
	id, _, err := fs.Lookup(rootCred, fs.Root(), name)
	if err != nil {
		return len(gens), len(gens)
	}
	want := make([]byte, blockSize)
	for b, g := range gens {
		fillBlock(want, seed, file, uint64(b), uint64(g))
		got, _, err := fs.Read(rootCred, id, uint64(b)*blockSize, blockSize)
		if err != nil || !bytes.Equal(got, want) {
			failed++
		}
	}
	return len(gens), failed
}

func newWorkload(name string, st *stack, seed uint64, scale float64) (workload, error) {
	base := wlBase{st: st, seed: seed}
	switch name {
	case "stream_read":
		return &streamRead{wlBase: base, blocks: scaled(streamBlocks, scale, 64), ops: scaled(streamRoundOps, scale, 32)}, nil
	case "stream_write":
		return &streamWrite{wlBase: base, blocks: scaled(streamBlocks, scale, 64), ops: scaled(streamRoundOps, scale, 32)}, nil
	case "meta_small":
		return &metaSmall{wlBase: base, files: scaled(metaFiles, scale, 20), dirs: scaled(metaDirs, scale, 2)}, nil
	case "commit_small":
		return &commitSmall{wlBase: base, blocks: scaled(commitBlocks, scale, 8), ops: scaled(commitRoundOps, scale, 4)}, nil
	case "warm_read":
		return &warmRead{wlBase: base, blocks: warmBlocks, ops: scaled(warmRoundOps, scale, 4*warmBatch)}, nil
	case "login":
		return &login{wlBase: base, ops: scaled(loginRoundOps, scale, 4)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// usesDisk reports which store a workload runs on: the disk store
// where storage layers are the point, sfssd's default mem store where
// they would only add fsync noise.
func usesDisk(name string) bool {
	return name == "stream_read" || name == "stream_write" || name == "commit_small"
}

type wlBase struct {
	st   *stack
	seed uint64
}

func (b *wlBase) stack() *stack { return b.st }

// ---------------------------------------------------------------------
// stream_read: sequential 8 KiB reads over a file twice the server's
// pager budget and sixteen times the client cache — every pass misses
// both, so the per-byte layers (seal/open, the payload copy, the
// readahead pipeline, the pager fault path) do the work.

type streamRead struct {
	wlBase
	blocks, ops int
	f           *client.File
	next        int
	buf, want   []byte
}

func (w *streamRead) prepare() error {
	if err := preload(w.st.fs, "stream", w.seed, 0, w.blocks); err != nil {
		return err
	}
	l, err := w.st.newClient("bench-client-0")
	if err != nil {
		return err
	}
	w.f, err = l.cl.Open(user, w.st.abs("stream"))
	w.buf, w.want = make([]byte, blockSize), make([]byte, blockSize)
	// The pass starts at a seed-chosen block.
	w.next = int(mix(w.seed) % uint64(w.blocks))
	return err
}

func (w *streamRead) round(rec *recorder) roundResult {
	res := roundResult{ops: w.ops}
	for i := 0; i < w.ops; i++ {
		b := w.next
		w.next = (w.next + 1) % w.blocks
		ok := rec.op(func() bool {
			n, err := w.f.ReadAt(w.buf, uint64(b)*blockSize)
			return n == blockSize && (err == nil || b == w.blocks-1)
		})
		fillBlock(w.want, w.seed, 0, uint64(b), 0)
		if !ok || !bytes.Equal(w.buf, w.want) {
			res.failed++
		}
		res.payload += blockSize
	}
	return res
}

func (w *streamRead) verify() (int, int) { return 0, 0 }

// ---------------------------------------------------------------------
// stream_write: sequential 8 KiB overwrites of the same 128 MiB file,
// one Sync per round — the wire path the other way plus write-behind
// coalescing, WAL append and flush, dirty eviction from the pager and
// background checkpoints.

type streamWrite struct {
	wlBase
	blocks, ops int
	f           *client.File
	next        int
	pass        uint32
	gens        []uint32 // generation of each block as last Synced
	buf         []byte
}

func (w *streamWrite) prepare() error {
	if err := preload(w.st.fs, "stream", w.seed, 0, w.blocks); err != nil {
		return err
	}
	l, err := w.st.newClient("bench-client-0")
	if err != nil {
		return err
	}
	w.f, err = l.cl.Open(user, w.st.abs("stream"))
	w.buf = make([]byte, blockSize)
	w.gens = make([]uint32, w.blocks)
	w.pass = 1
	return err
}

func (w *streamWrite) round(rec *recorder) roundResult {
	res := roundResult{ops: w.ops}
	for i := 0; i < w.ops; i++ {
		b := w.next
		fillBlock(w.buf, w.seed, 0, uint64(b), uint64(w.pass))
		ok := rec.op(func() bool {
			n, err := w.f.WriteAt(w.buf, uint64(b)*blockSize)
			return n == blockSize && err == nil
		})
		if !ok {
			res.failed++
		}
		w.gens[b] = w.pass
		if w.next++; w.next == w.blocks {
			w.next, w.pass = 0, w.pass+1
		}
		res.payload += blockSize
	}
	if err := w.f.Sync(); err != nil {
		res.failed++
	}
	return res
}

// verify shuts the stack down, reopens the store from its directory
// and compares every Sync-acknowledged block.
func (w *streamWrite) verify() (int, int) {
	fs, err := w.st.reopen()
	if err != nil {
		return w.blocks, w.blocks
	}
	return verifyFile(fs, "stream", w.seed, 0, w.gens)
}

// ---------------------------------------------------------------------
// meta_small: the namespace life cycle of many tiny files — the
// per-message layers (xdr, sunrpc framing and dispatch, one seal/open
// per tiny record, vfs namespace locks, lease grants) do the work;
// per-byte and storage layers idle.

type metaSmall struct {
	wlBase
	files, dirs int
	cl          *client.Client
	dirPaths    []string
	names       []string // file base names
	data, want  []byte
}

func (w *metaSmall) prepare() error {
	l, err := w.st.newClient("bench-client-0")
	if err != nil {
		return err
	}
	w.cl = l.cl
	rng := rand.New(rand.NewSource(int64(w.seed)))
	for d := 0; d < w.dirs; d++ {
		p := w.st.abs(fmt.Sprintf("d%02d-%06x", d, rng.Intn(1<<24)))
		if err := w.cl.Mkdir(user, p, 0o755); err != nil {
			return err
		}
		w.dirPaths = append(w.dirPaths, p)
	}
	for i := 0; i < w.files; i++ {
		w.names = append(w.names, fmt.Sprintf("%04d-%08x", i, rng.Uint32()))
	}
	w.data, w.want = make([]byte, metaFileBytes), make([]byte, metaFileBytes)
	return nil
}

func (w *metaSmall) path(prefix string, i int) string {
	return w.dirPaths[i%w.dirs] + "/" + prefix + w.names[i]
}

func (w *metaSmall) round(rec *recorder) roundResult {
	var res roundResult
	phase := func(n int, op func(i int) bool) {
		for i := 0; i < n; i++ {
			if !rec.op(func() bool { return op(i) }) {
				res.failed++
			}
		}
		res.ops += n
		res.phases = append(res.phases, n)
	}
	phase(w.files, func(i int) bool {
		fillBlock(w.data, w.seed, 1, uint64(i), 0)
		f, err := w.cl.Create(user, w.path("f", i), 0o644)
		if err != nil {
			return false
		}
		if _, err := f.WriteAt(w.data, 0); err != nil {
			return false
		}
		res.payload += metaFileBytes
		return f.Sync() == nil
	})
	phase(w.files, func(i int) bool {
		a, err := w.cl.Stat(user, w.path("f", i))
		return err == nil && a.Size == metaFileBytes
	})
	phase(w.dirs, func(d int) bool {
		ents, err := w.cl.ReadDir(user, w.dirPaths[d])
		want := w.files / w.dirs
		if d < w.files%w.dirs {
			want++
		}
		return err == nil && len(ents) == want
	})
	phase(w.files, func(i int) bool {
		got, err := w.cl.ReadFile(user, w.path("f", i))
		fillBlock(w.want, w.seed, 1, uint64(i), 0)
		res.payload += metaFileBytes
		return err == nil && bytes.Equal(got, w.want)
	})
	phase(w.files, func(i int) bool {
		return w.cl.Rename(user, w.path("f", i), w.path("r", i)) == nil
	})
	phase(w.files, func(i int) bool {
		return w.cl.Remove(user, w.path("r", i)) == nil
	})
	return res
}

// verify checks the rounds left nothing behind: every file created
// was renamed and removed.
func (w *metaSmall) verify() (int, int) {
	failed := 0
	for _, p := range w.dirPaths {
		if ents, err := w.cl.ReadDir(user, p); err != nil || len(ents) != 0 {
			failed++
		}
	}
	return len(w.dirPaths), failed
}

// ---------------------------------------------------------------------
// commit_small: two clients, each on its own connection and file,
// issue 8 KiB WriteAt + Sync — the WAL's group commit and the fsync
// itself dominate, and two callers let batching show.

type commitSmall struct {
	wlBase
	blocks, ops int
	files       [commitClients]*client.File
	gens        [commitClients][]uint32
	order       [commitClients][]int // seed-drawn block per op
	done        [commitClients]int
}

func (w *commitSmall) prepare() error {
	rng := rand.New(rand.NewSource(int64(w.seed)))
	for c := 0; c < commitClients; c++ {
		name := fmt.Sprintf("commit-%d", c)
		if err := preload(w.st.fs, name, w.seed, uint64(c), w.blocks); err != nil {
			return err
		}
		l, err := w.st.newClient(fmt.Sprintf("bench-client-%d", c))
		if err != nil {
			return err
		}
		if w.files[c], err = l.cl.Open(user, w.st.abs(name)); err != nil {
			return err
		}
		w.gens[c] = make([]uint32, w.blocks)
		w.order[c] = rng.Perm(w.blocks)
	}
	return nil
}

func (w *commitSmall) round(rec *recorder) roundResult {
	res := roundResult{ops: commitClients * w.ops, payload: uint64(commitClients*w.ops) * blockSize}
	var recs [commitClients]*recorder
	var fails [commitClients]int
	var wg sync.WaitGroup
	for c := 0; c < commitClients; c++ {
		recs[c] = rec.child()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, blockSize)
			f := w.files[c]
			for i := 0; i < w.ops; i++ {
				n := w.done[c]
				w.done[c]++
				b := w.order[c][n%w.blocks]
				gen := uint32(n/w.blocks + 1)
				fillBlock(buf, w.seed, uint64(c), uint64(b), uint64(gen))
				ok := recs[c].op(func() bool {
					if n, err := f.WriteAt(buf, uint64(b)*blockSize); n != blockSize || err != nil {
						return false
					}
					return f.Sync() == nil
				})
				if !ok {
					fails[c]++
					continue
				}
				w.gens[c][b] = gen
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < commitClients; c++ {
		rec.merge(recs[c])
		res.failed += fails[c]
	}
	return res
}

func (w *commitSmall) verify() (int, int) {
	fs, err := w.st.reopen()
	if err != nil {
		return commitClients * w.blocks, commitClients * w.blocks
	}
	checks, failed := 0, 0
	for c := 0; c < commitClients; c++ {
		n, f := verifyFile(fs, fmt.Sprintf("commit-%d", c), w.seed, uint64(c), w.gens[c])
		checks, failed = checks+n, failed+f
	}
	return checks, failed
}

// ---------------------------------------------------------------------
// warm_read: random 8 KiB reads over a file that fits the client's
// own data cache. Only the cache hit path runs, so this is the bypass
// workload for every wire, server and storage change: the prediction
// for those is "no change", and the post-check is zero READ RPCs.

type warmRead struct {
	wlBase
	blocks, ops int
	f           *client.File
	order       []uint32
	pos         int
	image       []byte // expected file content
	buf         []byte
	readsBefore uint64
}

func (w *warmRead) prepare() error {
	if err := preload(w.st.fs, "warm", w.seed, 0, w.blocks); err != nil {
		return err
	}
	l, err := w.st.newClient("bench-client-0")
	if err != nil {
		return err
	}
	if w.f, err = l.cl.Open(user, w.st.abs("warm")); err != nil {
		return err
	}
	w.image = make([]byte, w.blocks*blockSize)
	w.buf = make([]byte, blockSize)
	// One sequential pass fills the client cache and checks the image.
	for b := 0; b < w.blocks; b++ {
		fillBlock(w.image[b*blockSize:(b+1)*blockSize], w.seed, 0, uint64(b), 0)
		if n, _ := w.f.ReadAt(w.buf, uint64(b)*blockSize); n != blockSize || !bytes.Equal(w.buf, w.image[b*blockSize:(b+1)*blockSize]) {
			return fmt.Errorf("warm_read: preload pass read wrong bytes at block %d", b)
		}
	}
	rng := rand.New(rand.NewSource(int64(w.seed)))
	w.order = make([]uint32, 1<<16)
	for i := range w.order {
		w.order[i] = uint32(rng.Intn(w.blocks))
	}
	return nil
}

func (w *warmRead) round(rec *recorder) roundResult {
	if w.readsBefore == 0 {
		w.readsBefore = w.readRPCs() + 1 // +1 keeps "unset" distinct from zero
	}
	res := roundResult{ops: w.ops, payload: uint64(w.ops) * blockSize}
	for done := 0; done < w.ops; done += warmBatch {
		t := time.Now()
		for i := 0; i < warmBatch; i++ {
			b := int(w.order[w.pos])
			if w.pos++; w.pos == len(w.order) {
				w.pos = 0
			}
			n, err := w.f.ReadAt(w.buf, uint64(b)*blockSize)
			if n != blockSize || err != nil || !bytes.Equal(w.buf, w.image[b*blockSize:(b+1)*blockSize]) {
				res.failed++
			}
		}
		// One sample per batch: the clock is under 2% of a batch.
		rec.add(t, warmBatch)
	}
	return res
}

func (w *warmRead) readRPCs() uint64 {
	st, _ := w.st.master.NFSStats(location)
	return st.Procs["read"].Calls
}

// verify asserts the timed phase sent no READ RPC at all.
func (w *warmRead) verify() (int, int) {
	if w.readRPCs()+1 != w.readsBefore {
		return 1, 1
	}
	return 1, 0
}

// ---------------------------------------------------------------------
// login: each worker severs its own transport and stats a file until
// the answer comes over a new connection — ticket resume and rekey,
// agent-signed user authentication, MountRoot, GETATTR. The paper's
// own mechanism is the only thing on the path.

type login struct {
	wlBase
	ops   int
	links [loginWorkers]*link
	path  string
}

func (w *login) prepare() error {
	name := fmt.Sprintf("probe-%08x", uint32(mix(w.seed)))
	if err := preload(w.st.fs, name, w.seed, 0, 1); err != nil {
		return err
	}
	w.path = w.st.abs(name)
	for i := range w.links {
		l, err := w.st.newClient(fmt.Sprintf("bench-client-%d", i))
		if err != nil {
			return err
		}
		// The one full Rabin negotiation per worker is paid here.
		if _, err := l.cl.Stat(user, w.path); err != nil {
			return err
		}
		w.links[i] = l
	}
	return nil
}

// relogin is one operation: false when no fresh connection answered.
func (w *login) relogin(l *link) bool {
	before := l.dials.Load()
	l.sever()
	for try := 0; try < loginMaxRetries; try++ {
		// A Stat answered by the dying mount's caches is not a login.
		if a, err := l.cl.Stat(user, w.path); err == nil && l.dials.Load() > before {
			return a.Size == blockSize
		}
		runtime.Gosched()
	}
	return false
}

func (w *login) round(rec *recorder) roundResult {
	res := roundResult{ops: loginWorkers * w.ops}
	var recs [loginWorkers]*recorder
	var fails [loginWorkers]int
	var wg sync.WaitGroup
	for i := range w.links {
		recs[i] = rec.child()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < w.ops; n++ {
				if !recs[i].op(func() bool { return w.relogin(w.links[i]) }) {
					fails[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range w.links {
		rec.merge(recs[i])
		res.failed += fails[i]
	}
	return res
}

// verify asserts every reconnect resumed: one full negotiation per
// worker, ever, and no resumption miss.
func (w *login) verify() (int, int) {
	hs := w.st.master.StatsSnapshot().Handshakes
	failed := 0
	if hs.Full != loginWorkers {
		failed++
	}
	if hs.ResumeMiss != 0 {
		failed++
	}
	return 2, failed
}
