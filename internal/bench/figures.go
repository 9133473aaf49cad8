package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/netsim"
	"repro/internal/nfs"
	"repro/internal/server"
	"repro/internal/stats"
)

// StackKind names one benchmarkable configuration.
type StackKind string

// The configurations of the paper's evaluation.
const (
	KindLocal      StackKind = "local"
	KindNFSUDP     StackKind = "nfs-udp"
	KindNFSTCP     StackKind = "nfs-tcp"
	KindSFS        StackKind = "sfs"
	KindSFSNoEnc   StackKind = "sfs-noenc"
	KindSFSNoCache StackKind = "sfs-nocache"
)

// Build constructs a fresh stack of the given kind over its own
// substrate file system on the era disk, and returns that disk too, for
// its charge counters. The process-wide wire-copy ledger (DESIGN.md
// §12) is reset here so each stack's counter snapshot covers exactly
// its own traffic.
func Build(kind StackKind) (st Stack, disk *netsim.DiskStore, err error) {
	stats.ResetWireCopy()
	fs, disk := newEraFS()
	switch kind {
	case KindLocal:
		st = NewLocal(fs)
	case KindNFSUDP:
		st, err = NewNFS(fs, "udp", netsim.NFSUDP())
	case KindNFSTCP:
		st, err = NewNFS(fs, "tcp", netsim.NFSTCP())
	case KindSFS:
		st, err = NewSFS(fs, paperClient, paperServed)
	case KindSFSNoEnc:
		ccfg, scfg := paperClient, paperServed
		ccfg.NoEncryption, scfg.NoEncryption = true, true
		st, err = NewSFS(fs, ccfg, scfg)
	case KindSFSNoCache:
		st, err = NewSFS(fs, client.Config{DataCacheBytes: -1}, server.ServedConfig{})
	default:
		err = fmt.Errorf("bench: unknown stack kind %q", kind)
	}
	return st, disk, err
}

// Options scales the experiments.
type Options struct {
	// Quick shrinks workload sizes for fast smoke runs; reported
	// shapes still hold, absolute numbers shrink.
	Quick bool
	// Out receives the rendered tables (nil discards them).
	Out io.Writer
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// FigureRow is one line of a rendered figure: measured value plus the
// paper's reference number where the paper states one.
type FigureRow struct {
	Stack string `json:"stack"`
	Phase string `json:"phase"`
	// Measured value and unit ("us", "MB/s", "s").
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Paper is the paper's reported value in the same unit, or 0
	// when the paper gives only a bar chart.
	Paper float64 `json:"paper,omitempty"`
	RPCs  uint64  `json:"rpcs"`
}

// Figure is one reproduced table/figure, and the schema of the
// BENCH_*.json file WriteJSON writes (documented in EXPERIMENTS.md;
// keep the two in sync).
type Figure struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Quick records whether the figure ran with shrunken workloads,
	// so trajectory tooling never compares quick rows to full rows.
	Quick bool        `json:"quick"`
	Rows  []FigureRow `json:"rows"`
	// Counters holds each remote stack's server-side NFS counter
	// snapshot, taken after its workloads ran — the raw per-procedure
	// and write-stability numbers behind the Rows.
	Counters map[string]nfs.ServerStats `json:"counters,omitempty"`
	// Disk holds what the era disk model charged under each stack of
	// Figures 5–9, synchronous updates by cause, keyed like Counters.
	Disk map[string]netsim.DiskCharges `json:"disk,omitempty"`
}

func (f *Figure) render(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "%-26s %-16s %12s %12s %8s\n", "stack", "phase", "measured", "paper", "RPCs")
	for _, r := range f.Rows {
		paper := "-"
		if r.Paper != 0 {
			paper = fmt.Sprintf("%.1f %s", r.Paper, r.Unit)
		}
		fmt.Fprintf(w, "%-26s %-16s %9.1f %s %12s %8d\n",
			r.Stack, r.Phase, r.Value, r.Unit, paper, r.RPCs)
	}
}

// eachStack builds each kind in turn, runs work on it, records its
// server counters (stacks without a server, Local, have none) and what
// its disk charged under the stack's name, and closes it.
func (f *Figure) eachStack(kinds []StackKind, work func(StackKind, Stack) error) error {
	f.Counters = make(map[string]nfs.ServerStats)
	f.Disk = make(map[string]netsim.DiskCharges)
	for _, kind := range kinds {
		st, disk, err := Build(kind)
		if err != nil {
			return err
		}
		if err = work(kind, st); err == nil {
			if ss, ok := st.ServerStats(); ok {
				f.Counters[st.Name()] = ss
			}
			f.Disk[st.Name()] = disk.Charges()
		}
		st.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// phaseRows appends one row of wall seconds per phase result; paper
// holds the paper's seconds for the phases it states.
func (f *Figure) phaseRows(st Stack, results []Result, paper map[string]float64) {
	for _, r := range results {
		f.Rows = append(f.Rows, FigureRow{
			Stack: st.Name(), Phase: r.Phase,
			Value: r.Elapsed.Seconds(), Unit: "s",
			Paper: paper[r.Phase], RPCs: r.RPCs,
		})
	}
}

// Fig5 reproduces Figure 5: micro-benchmarks for basic operations —
// the latency of an unauthorized chown and the throughput of a sparse
// sequential read, for NFS/UDP, NFS/TCP, SFS, and SFS w/o encryption.
func Fig5(opts Options) (*Figure, error) {
	iters := 500
	size := int64(64 << 20)
	if opts.Quick {
		iters, size = 100, 8<<20
	}
	fig := &Figure{ID: "Figure 5", Title: "micro-benchmarks for basic operations", Quick: opts.Quick}
	paperLat := map[StackKind]float64{KindNFSUDP: 200, KindNFSTCP: 220, KindSFS: 790, KindSFSNoEnc: 770}
	paperTput := map[StackKind]float64{KindNFSUDP: 9.3, KindNFSTCP: 7.6, KindSFS: 4.1, KindSFSNoEnc: 7.1}
	err := fig.eachStack([]StackKind{KindNFSUDP, KindNFSTCP, KindSFS, KindSFSNoEnc}, func(kind StackKind, st Stack) error {
		lat, err := LatencyMicro(st, iters)
		if err != nil {
			return err
		}
		tput, err := ThroughputMicro(st, size)
		if err != nil {
			return err
		}
		fig.Rows = append(fig.Rows, FigureRow{
			Stack: st.Name(), Phase: "latency",
			Value: float64(lat.Elapsed.Microseconds()), Unit: "us",
			Paper: paperLat[kind], RPCs: lat.RPCs,
		}, FigureRow{
			Stack: st.Name(), Phase: "throughput",
			Value: tput.MBps(), Unit: "MB/s",
			Paper: paperTput[kind], RPCs: tput.RPCs,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig.render(opts.out())
	return fig, nil
}

// Fig6 reproduces Figure 6: the Modified Andrew Benchmark phases on
// Local, NFS/UDP, NFS/TCP, and SFS, plus the paper's enhanced-caching
// ablation (SFS without leases/access caching, total 6.6 s vs 5.9 s).
func Fig6(opts Options) (*Figure, error) {
	fig := &Figure{ID: "Figure 6", Title: "Modified Andrew Benchmark (wall seconds per phase)", Quick: opts.Quick}
	paperTotal := map[StackKind]float64{
		KindNFSUDP: 5.3, KindSFS: 5.9, KindSFSNoCache: 6.6,
	}
	kinds := []StackKind{KindLocal, KindNFSUDP, KindNFSTCP, KindSFS, KindSFSNoCache}
	// 56 ms per source file puts the compile phase on Local near the
	// paper's ≈3 s. It is the same on every stack, so Quick halves it.
	burn := 56 * time.Millisecond
	if opts.Quick {
		kinds = []StackKind{KindLocal, KindNFSUDP, KindSFS, KindSFSNoCache}
		burn /= 2
	}
	err := fig.eachStack(kinds, func(kind StackKind, st Stack) error {
		results, err := MABPhases(st, burn)
		fig.phaseRows(st, results, map[string]float64{"total": paperTotal[kind]})
		return err
	})
	if err != nil {
		return nil, err
	}
	fig.render(opts.out())
	return fig, nil
}

// Fig7 reproduces Figure 7: compiling the GENERIC FreeBSD kernel.
// The workload is scaled: the paper's Local run takes 140 s; the
// default here runs 1/10th of the units so Local lands near 14 s, and
// Quick shrinks further. Ratios between stacks are the reproduced
// quantity.
func Fig7(opts Options) (*Figure, error) {
	units, burn := 100, 110*time.Millisecond
	scale := 10.0
	if opts.Quick {
		units, burn = 20, 55*time.Millisecond
		scale = 70.0
	}
	fig := &Figure{ID: "Figure 7", Title: fmt.Sprintf("GENERIC kernel compile (scaled 1/%g; paper values also scaled)", scale), Quick: opts.Quick}
	paper := map[StackKind]float64{
		KindLocal: 140, KindNFSUDP: 178, KindNFSTCP: 207, KindSFS: 197,
	}
	kinds := []StackKind{KindLocal, KindNFSUDP, KindNFSTCP, KindSFS, KindSFSNoEnc}
	if opts.Quick {
		kinds = []StackKind{KindLocal, KindNFSUDP, KindNFSTCP, KindSFS}
	}
	err := fig.eachStack(kinds, func(kind StackKind, st Stack) error {
		r, err := CompileWorkload(st, units, burn)
		if err != nil {
			return err
		}
		fig.Rows = append(fig.Rows, FigureRow{
			Stack: st.Name(), Phase: "compile",
			Value: r.Elapsed.Seconds(), Unit: "s",
			Paper: paper[kind] / scale, RPCs: r.RPCs,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig.render(opts.out())
	return fig, nil
}

// Fig8 reproduces Figure 8: the Sprite LFS small-file benchmark
// (create/read/unlink 1,000 1 KB files), including the paper's note
// that SFS without attribute caching loses ≈1 s on the create phase.
func Fig8(opts Options) (*Figure, error) {
	n := 1000
	if opts.Quick {
		n = 100
	}
	fig := &Figure{ID: "Figure 8", Title: fmt.Sprintf("Sprite LFS small-file benchmark (%d x 1 KB files)", n), Quick: opts.Quick}
	kinds := []StackKind{KindLocal, KindNFSUDP, KindNFSTCP, KindSFS, KindSFSNoCache}
	if opts.Quick {
		kinds = []StackKind{KindLocal, KindNFSUDP, KindSFS}
	}
	err := fig.eachStack(kinds, func(_ StackKind, st Stack) error {
		results, err := SpriteSmall(st, n, 1024)
		fig.phaseRows(st, results, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	fig.render(opts.out())
	return fig, nil
}

// Fig9 reproduces Figure 9: the Sprite LFS large-file benchmark
// (sequential/random writes and reads of a 40,000 KB file in 8 KB
// chunks).
func Fig9(opts Options) (*Figure, error) {
	size := int64(40000 << 10)
	if opts.Quick {
		size = 4 << 20
	}
	fig := &Figure{ID: "Figure 9", Title: fmt.Sprintf("Sprite LFS large-file benchmark (%d MB file, 8 KB chunks)", size>>20), Quick: opts.Quick}
	kinds := []StackKind{KindLocal, KindNFSUDP, KindNFSTCP, KindSFS, KindSFSNoEnc}
	if opts.Quick {
		kinds = []StackKind{KindLocal, KindNFSUDP, KindSFS, KindSFSNoEnc}
	}
	err := fig.eachStack(kinds, func(_ StackKind, st Stack) error {
		results, err := SpriteLarge(st, size)
		fig.phaseRows(st, results, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	fig.render(opts.out())
	return fig, nil
}

// FigureSpec is one entry of the figure registry: the -fig key the
// CLI accepts, the ID the figure's output carries (whose slug names
// the committed BENCH_<slug>.json), and the runner itself.
type FigureSpec struct {
	Key string
	ID  string
	Run func(Options) (*Figure, error)
}

// Registry lists every figure in canonical run order. cmd/sfsbench
// drives -fig and -list from it, so registering a figure here is the
// only step a new experiment needs to become runnable and listable.
var Registry = []FigureSpec{
	{Key: "5", ID: "Figure 5", Run: Fig5},
	{Key: "6", ID: "Figure 6", Run: Fig6},
	{Key: "7", ID: "Figure 7", Run: Fig7},
	{Key: "8", ID: "Figure 8", Run: Fig8},
	{Key: "9", ID: "Figure 9", Run: Fig9},
	{Key: "recovery", ID: "Recovery", Run: FigRecovery},
}

// SlugForID derives the BENCH_ file stem for a figure ID without
// running the figure (the -list path).
func SlugForID(id string) string { return (&Figure{ID: id}).Slug() }
