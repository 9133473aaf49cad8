package bench

// The warm-read figure: what the client data block cache (PR 5) buys
// on a sequential re-read, and what coherence costs when another
// client rewrites the file. The paper's client caches only attributes
// and access rights — its data path pays a READ per 8 KB chunk
// forever — so this figure has no paper reference numbers; the
// cacheless ablation row stands in for the paper's client.

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/nfs"
	"repro/internal/stats"
)

// warmClient is the paper's client with the data cache on, sized so
// the whole benchmark file stays resident.
var warmClient = client.Config{EnhancedCaching: true, DataCacheBytes: 16 << 20}

const warmChunk = 8192

// seqReadFile reads size bytes of f sequentially in 8 KB chunks.
func seqReadFile(f *client.File, size int64) error {
	buf := make([]byte, warmChunk)
	for off := int64(0); off < size; off += warmChunk {
		if _, err := f.ReadAt(buf, uint64(off)); err != nil {
			return err
		}
	}
	return nil
}

// seqWriteFile fills f with size bytes of pattern v.
func seqWriteFile(f *client.File, size int64, v byte) error {
	buf := bytes.Repeat([]byte{v}, warmChunk)
	for off := int64(0); off < size; off += warmChunk {
		if _, err := f.WriteAt(buf, uint64(off)); err != nil {
			return err
		}
	}
	return f.Sync()
}

// FigWarmRead measures the data cache end to end with two client
// daemons on one server: a cold sequential read, the warm re-read
// (which must cross the wire zero times), the re-read after the other
// client rewrites the file (invalidation callbacks having dropped the
// cached blocks), a cacheless ablation row, and a warm scalability
// point with several clients re-reading their working sets at once.
func FigWarmRead(opts Options) (*Figure, error) {
	size := int64(4 << 20)
	scalClients, scalLoops := 4, 4
	if opts.Quick {
		size = 1 << 20
		scalClients, scalLoops = 2, 2
	}
	fig := &Figure{
		ID:    "Warm read",
		Title: fmt.Sprintf("client data cache: %d MB sequential re-read in 8 KB chunks", size>>20),
	}

	stats.ResetWireCopy()
	fs, _ := newEraFS()
	cluster, err := NewSFSCluster(fs, 2, warmClient, paperServed)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	reader, writer := cluster.Clients[0], cluster.Clients[1]
	base := cluster.Base()
	path := base + "/warm.bin"

	// The writer creates and fills the file so the reader's first
	// pass is genuinely cold — nothing the reader wrote itself.
	wf, err := writer.Create("bench", path, 0o644)
	if err != nil {
		return nil, err
	}
	if err := seqWriteFile(wf, size, 'a'); err != nil {
		return nil, err
	}
	rf, err := reader.Open("bench", path)
	if err != nil {
		return nil, err
	}

	readerStats := func() (nfs.Stats, error) { return reader.Stats("bench", base) }
	measure := func(stack, phase string) error {
		before, err := readerStats()
		if err != nil {
			return err
		}
		start := time.Now()
		if err := seqReadFile(rf, size); err != nil {
			return fmt.Errorf("%s/%s: %w", stack, phase, err)
		}
		elapsed := time.Since(start)
		after, err := readerStats()
		if err != nil {
			return err
		}
		fig.Rows = append(fig.Rows, FigureRow{
			Stack: stack, Phase: phase,
			Value: Result{Elapsed: elapsed, Bytes: size}.MBps(), Unit: "MB/s",
			RPCs: after.Calls - before.Calls,
		})
		return nil
	}

	const cached = "SFS (data cache)"
	if err := measure(cached, "cold read"); err != nil {
		return nil, err
	}
	if err := measure(cached, "warm re-read"); err != nil {
		return nil, err
	}

	// Remote rewrite: the server's invalidation callback must reach
	// the reader before the re-read, or we would time a stale cache.
	before, err := readerStats()
	if err != nil {
		return nil, err
	}
	if err := seqWriteFile(wf, size, 'b'); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := readerStats()
		if err != nil {
			return nil, err
		}
		if st.Invals > before.Invals {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: no invalidation callback after remote rewrite")
		}
		time.Sleep(time.Millisecond)
	}
	if err := measure(cached, "re-read after remote write"); err != nil {
		return nil, err
	}

	// Ablation: a third daemon on the same server with the cache off
	// re-reads the same file — every pass pays its READs, the
	// behaviour the paper's client has.
	nocacheCl, err := cluster.connect(paperClient)
	if err != nil {
		return nil, err
	}
	nf, err := nocacheCl.Open("bench", path)
	if err != nil {
		return nil, err
	}
	if err := seqReadFile(nf, size); err != nil {
		return nil, err
	}
	ncBefore, err := nocacheCl.Stats("bench", base)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := seqReadFile(nf, size); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	ncAfter, err := nocacheCl.Stats("bench", base)
	if err != nil {
		return nil, err
	}
	fig.Rows = append(fig.Rows, FigureRow{
		Stack: "SFS w/o data cache", Phase: "warm re-read",
		Value: Result{Elapsed: elapsed, Bytes: size}.MBps(), Unit: "MB/s",
		RPCs: ncAfter.Calls - ncBefore.Calls,
	})

	if ss, ok := cluster.ServerStats(); ok {
		fig.Counters = map[string]nfs.ServerStats{cached: ss}
	}

	// Warm scalability: several clients re-reading their own cached
	// working sets concurrently — the all-hits path under load.
	p, err := warmReadPoint(scalClients, size/int64(scalClients), scalLoops)
	if err != nil {
		return nil, err
	}
	fig.Rows = append(fig.Rows, FigureRow{
		Stack: fmt.Sprintf("%d clients warm", scalClients), Phase: "aggregate re-read",
		Value: p.MBps(), Unit: "MB/s", RPCs: p.RPCs,
	})

	fig.render(opts.out())
	return fig, nil
}

// warmReadPoint boots a cluster of `clients` daemons with the data
// cache on, primes each client's own file of perClient bytes, then
// times `loops` concurrent sequential re-read passes per client.
func warmReadPoint(clients int, perClient int64, loops int) (ScalPoint, error) {
	fs, _ := newEraFS()
	cluster, err := NewSFSCluster(fs, clients, warmClient, paperServed)
	if err != nil {
		return ScalPoint{}, err
	}
	defer cluster.Close()

	files := make([]*client.File, clients)
	for i, cl := range cluster.Clients {
		f, err := cl.Create("bench", fmt.Sprintf("%s/warm-%d.bin", cluster.Base(), i), 0o644)
		if err != nil {
			return ScalPoint{}, err
		}
		if err := seqWriteFile(f, perClient, byte('a'+i%16)); err != nil {
			return ScalPoint{}, err
		}
		if err := seqReadFile(f, perClient); err != nil {
			return ScalPoint{}, err
		}
		files[i] = f
	}
	elapsed, rpcs, err := cluster.timeClients(func(i int) error {
		for l := 0; l < loops; l++ {
			if err := seqReadFile(files[i], perClient); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ScalPoint{}, err
	}
	return ScalPoint{
		Clients: clients,
		Elapsed: elapsed,
		Bytes:   perClient * int64(loops) * int64(clients),
		RPCs:    rpcs,
	}, nil
}
