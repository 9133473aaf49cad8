package bench

// The scalability figure: C concurrent client daemons, each over its
// own secure channel, running a mixed 8 KB read/write workload against
// ONE sfssd — the experiment behind the sharded server hot path. The
// paper never plots this (its evaluation is single-client), but the
// north star is a server for many users, so aggregate throughput vs
// client count is the figure that keeps the locking honest: with the
// old process-wide locks the curve was flat.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/nfs"
)

// ScalPoint is one measured point of the scalability curve.
type ScalPoint struct {
	Clients int
	Elapsed time.Duration
	// Bytes moved across all clients (reads + writes).
	Bytes int64
	// RPCs that crossed all wires during the run.
	RPCs uint64
}

// MBps is the aggregate throughput across the cluster.
func (p ScalPoint) MBps() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Bytes) / 1e6 / p.Elapsed.Seconds()
}

// RPCps is the aggregate server RPC rate.
func (p ScalPoint) RPCps() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.RPCs) / p.Elapsed.Seconds()
}

// workingSetChunks is each client's file size in 8 KB chunks. Small
// enough to stay cache-resident (the experiment measures locking, not
// the disk model), large enough that reads and writes spread across
// offsets.
const workingSetChunks = 32

// ScalabilityPoint runs the mixed 8 KB read/write workload —
// alternating writes and reads over a per-client file with a COMMIT
// every 16 operations — with `clients` concurrent client daemons
// moving bytesPerClient each, and returns the aggregate measurements
// plus the server counter snapshot.
func ScalabilityPoint(clients int, bytesPerClient int64) (ScalPoint, nfs.ServerStats, error) {
	fs, _ := newEraFS()
	cluster, err := NewSFSCluster(fs, clients, paperClient, paperServed)
	if err != nil {
		return ScalPoint{}, nfs.ServerStats{}, err
	}
	defer cluster.Close()

	const chunk = 8192
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i * 13)
	}

	// Priming (untimed): every client creates and fills its own file
	// so the timed region measures steady-state data-path traffic,
	// not cold creates.
	files := make([]*client.File, clients)
	for i, cl := range cluster.Clients {
		f, err := cl.Create("bench", fmt.Sprintf("%s/scal-%d.bin", cluster.Base(), i), 0o644)
		if err != nil {
			return ScalPoint{}, nfs.ServerStats{}, err
		}
		for c := 0; c < workingSetChunks; c++ {
			if _, err := f.WriteAt(buf, uint64(c*chunk)); err != nil {
				return ScalPoint{}, nfs.ServerStats{}, err
			}
		}
		if err := f.Sync(); err != nil {
			return ScalPoint{}, nfs.ServerStats{}, err
		}
		files[i] = f
	}
	ops := int(bytesPerClient / chunk)
	elapsed, rpcs, err := cluster.timeClients(func(i int) error {
		f := files[i]
		for op := 0; op < ops; op++ {
			// Offsets rotate through the working set, write and
			// read pointers deliberately out of phase.
			if op%2 == 0 {
				off := uint64((op / 2 % workingSetChunks) * chunk)
				if _, err := f.WriteAt(buf, off); err != nil {
					return err
				}
			} else {
				off := uint64(((op/2 + workingSetChunks/2) % workingSetChunks) * chunk)
				rd := make([]byte, chunk)
				if _, err := f.ReadAt(rd, off); err != nil {
					return err
				}
			}
			if op%16 == 15 {
				if err := f.Sync(); err != nil {
					return err
				}
			}
		}
		return f.Sync()
	})
	if err != nil {
		return ScalPoint{}, nfs.ServerStats{}, err
	}
	ss, _ := cluster.ServerStats()
	return ScalPoint{
		Clients: clients,
		Elapsed: elapsed,
		Bytes:   int64(ops) * chunk * int64(clients),
		RPCs:    rpcs,
	}, ss, nil
}

// timeClients runs work(i) for every client of the cluster at once and
// returns the wall time they took and the wire RPCs they cost.
func (c *SFSCluster) timeClients(work func(i int) error) (time.Duration, uint64, error) {
	var before uint64
	for _, cl := range c.Clients {
		before += cl.TotalRPCs()
	}
	errs := make([]error, len(c.Clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range c.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = work(i)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var after uint64
	for i, cl := range c.Clients {
		if errs[i] != nil {
			return 0, 0, fmt.Errorf("client %d: %w", i, errs[i])
		}
		after += cl.TotalRPCs()
	}
	return elapsed, after - before, nil
}

// FigScalability measures the scalability curve: aggregate throughput
// and RPC rate of the mixed 8 KB read/write workload at 1, 2, 4, 8,
// and 16 concurrent clients against one server.
func FigScalability(opts Options) (*Figure, error) {
	counts := []int{1, 2, 4, 8, 16}
	per := int64(4 << 20)
	if opts.Quick {
		counts = []int{1, 2, 4}
		per = 1 << 20
	}
	fig := &Figure{
		ID:    "Scalability",
		Title: fmt.Sprintf("aggregate SFS throughput vs concurrent clients (mixed 8 KB r/w, %d KB per client)", per>>10),
	}
	for _, n := range counts {
		p, ss, err := ScalabilityPoint(n, per)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d clients", n)
		if n == 1 {
			label = "1 client"
		}
		fig.Rows = append(fig.Rows,
			FigureRow{Stack: label, Phase: "throughput", Value: p.MBps(), Unit: "MB/s", RPCs: p.RPCs},
			FigureRow{Stack: label, Phase: "rpc rate", Value: p.RPCps(), Unit: "RPC/s", RPCs: p.RPCs},
		)
		if fig.Counters == nil {
			fig.Counters = make(map[string]nfs.ServerStats)
		}
		fig.Counters[label] = ss
	}
	fig.render(opts.out())
	return fig, nil
}
