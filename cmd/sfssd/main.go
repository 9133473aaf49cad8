// Command sfssd is the SFS server master (paper §3.2): it serves a
// file system under a self-certifying pathname, answers connect
// requests, negotiates secure channels, and runs the authserver
// alongside the file service.
//
// Usage:
//
//	sfssd -listen :4655 -location files.example.com -keyfile srv.sfs \
//	      [-store mem|disk -dir PATH] [-seed DIR] [-lease 60000] \
//	      [-user name:uid:password:keyfile]...
//
// -store selects the durable storage backend: "mem" (default) serves
// from memory and loses everything at exit; "disk" journals every
// mutation to a group-commit write-ahead log under -dir and replays
// it at boot, so acknowledged COMMITs survive a kill -9 (DESIGN.md
// §11).
//
// On the disk store, recovery time and memory are bounded
// (DESIGN.md §15): -checkpoint-bytes (default 64 MiB) snapshots the
// file system into an atomic checkpoint image and compacts the WAL
// whenever the journal's live bytes reach the threshold, and
// -checkpoint-interval adds a timer trigger; boot then loads the
// newest valid image and replays only the journal tail, logging the
// two phases' MB/s separately. File content lives in an extent file
// read and written in place; the kernel's page cache is its only
// cache, so the served data set can exceed RAM.
//
// -seed copies a host directory tree into the served substrate file
// system (on every boot — pair it with -store disk only for first
// runs, since re-seeding re-journals the tree). Each -user registers
// a user with the
// authserver: a key pair is generated and written to the named file,
// and, when a password is given, SRP data plus an encrypted copy of
// the private key are stored so "sfskey fetch" works against this
// server.
//
// -stats ADDR serves live counters as JSON at http://ADDR/stats
// (net/http/pprof rides along under /debug/pprof/). -quiet turns off
// the single-line accept/close connection log.
//
// -trace records a per-RPC stage span (encode, seal, queue, dispatch,
// vfs, fsync, reply) for every file RPC; the per-stage log2 histograms
// with derived p50/p95/p99, and the last 256 spans, appear under "nfs"
// in the stats endpoint. -trace-slow DUR (which implies -trace) logs a
// one-line stage waterfall for any RPC slower than DUR (DESIGN.md
// §13); -quiet silences it with the connection log.
//
// Connection admission (DESIGN.md §14): full key negotiations run on
// a bounded worker pool — -hs-workers (default NumCPU) with
// -hs-backlog queued arrivals beyond it (default 16×workers) — and
// anything past that is fast-rejected with a busy status, so connect
// storms degrade to queuing instead of unbounded Rabin decrypts.
// -handshake-timeout (default 5s) cuts off peers that stall
// mid-negotiation, freeing their pool slot and counting a
// handshake timeout in the stats. -resume-cache BYTES (default 1 MiB,
// 0 disables) and -resume-ttl bound the session-resumption cache that
// lets reconnecting clients skip the public-key handshake entirely.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/authserv"
	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/keyfile"
	"repro/internal/secchan"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/storage/diskstore"
	"repro/internal/vfs"
)

type userFlag []string

func (u *userFlag) String() string     { return strings.Join(*u, ",") }
func (u *userFlag) Set(s string) error { *u = append(*u, s); return nil }

func main() {
	listen := flag.String("listen", ":4655", "TCP listen address")
	location := flag.String("location", "", "server location (DNS name in pathnames)")
	kf := flag.String("keyfile", "", "server private key (sfskey gen)")
	store := flag.String("store", "mem", "storage backend: mem (volatile) or disk (WAL under -dir)")
	dir := flag.String("dir", "", "disk store directory (required with -store disk)")
	seed := flag.String("seed", "", "host directory to copy into the served file system")
	lease := flag.Uint("lease", 60000, "attribute lease in ms (0 disables SFS caching extensions)")
	statsAddr := flag.String("stats", "", "serve JSON counters and pprof on this address")
	quiet := flag.Bool("quiet", false, "suppress per-connection accept/close logging")
	trace := flag.Bool("trace", false, "record per-RPC stage spans and latency histograms")
	traceSlow := flag.Duration("trace-slow", 0, "log a stage waterfall for RPCs slower than this (implies -trace)")
	hsTimeout := flag.Duration("handshake-timeout", 5*time.Second, "deadline for key negotiation (0 disables)")
	hsWorkers := flag.Int("hs-workers", 0, "negotiation pool size for full handshakes (0 = NumCPU)")
	hsBacklog := flag.Int("hs-backlog", 0, "queued handshakes beyond the pool before fast-reject (0 = 16x workers)")
	resumeCache := flag.Int64("resume-cache", 1<<20, "session-resumption cache budget in bytes (0 disables)")
	resumeTTL := flag.Duration("resume-ttl", time.Hour, "lifetime of cached resumption sessions")
	ckptBytes := flag.Uint64("checkpoint-bytes", 64<<20, "checkpoint when WAL live bytes reach this (0 disables; -store disk)")
	ckptEvery := flag.Duration("checkpoint-interval", 0, "also checkpoint on this interval (0 disables; -store disk)")
	var users userFlag
	flag.Var(&users, "user", "register user name:uid:password:keyfile (repeatable)")
	flag.Parse()
	if *location == "" || *kf == "" {
		fmt.Fprintln(os.Stderr, "sfssd: -location and -keyfile are required")
		os.Exit(2)
	}
	key, err := keyfile.Load(*kf)
	if err != nil {
		die(err)
	}
	rng := prng.New()
	var fsys *vfs.FS
	switch *store {
	case "mem":
		fsys = vfs.New()
	case "disk":
		if *dir == "" {
			fmt.Fprintln(os.Stderr, "sfssd: -store disk requires -dir")
			os.Exit(2)
		}
		if err := os.MkdirAll(*dir, 0o700); err != nil {
			die(err)
		}
		ds, err := diskstore.Open(*dir, diskstore.Options{})
		if err != nil {
			die(err)
		}
		fsys, err = vfs.NewWithStore(ds)
		if err != nil {
			die(err)
		}
		rp := fsys.LastReplay()
		fmt.Printf("sfssd: disk store in %s (epoch %d, replayed %d records, %d bytes)\n",
			*dir, ds.Epoch(), rp.Records, rp.Bytes)
		// Recovery phase breakdown: the image loads at sequential-scan
		// speed while the tail replays record-by-record — the gap is
		// exactly what checkpointing buys (DESIGN.md §15).
		fmt.Printf("sfssd: recovery: checkpoint %d records at %.1f MB/s, tail %d records at %.1f MB/s\n",
			rp.CheckpointRecords, rp.CheckpointMBps(), rp.TailRecords, rp.TailMBps())
		// The daemon runs until killed, so the stop handle is unused.
		_ = fsys.StartAutoCheckpoint(*ckptBytes, *ckptEvery)
	default:
		fmt.Fprintf(os.Stderr, "sfssd: unknown -store %q (want mem or disk)\n", *store)
		os.Exit(2)
	}
	if *seed != "" {
		if err := fsys.SeedFromHost(vfs.Cred{UID: 0}, *seed); err != nil {
			die(err)
		}
	}
	path := core.MakePath(*location, key.PublicKey.Bytes())
	auth := authserv.New(path.String(), rng)
	db := authserv.NewDB("local", true)
	auth.AddDB(db)
	for _, spec := range users {
		if err := registerUser(auth, db, rng, spec); err != nil {
			die(err)
		}
	}
	master := server.New(rng)
	cacheBytes := *resumeCache
	if cacheBytes == 0 {
		cacheBytes = -1 // flag 0 means "off"; negative is the policy's off switch
	}
	master.SetHandshakePolicy(server.HandshakePolicy{
		Workers: *hsWorkers, Backlog: *hsBacklog, Timeout: *hsTimeout,
		ResumeCacheBytes: cacheBytes, ResumeTTL: *resumeTTL,
	})
	if !*quiet {
		master.SetLogf(log.New(os.Stderr, "sfssd: ", log.LstdFlags).Printf)
	}
	srvCfg := server.ServedConfig{
		Location: *location, Key: key, FS: fsys, Auth: auth, LeaseMS: uint32(*lease),
	}
	if *trace || *traceSlow > 0 {
		srvCfg.TraceSpans = stats.TraceSpans
		srvCfg.TraceSlow = *traceSlow
	}
	if _, err := master.Serve(srvCfg); err != nil {
		die(err)
	}
	if *statsAddr != "" {
		// Mutex/block profiling rides along with the stats endpoint:
		// /debug/pprof/mutex and /debug/pprof/block then localize any
		// contention the sharded-lock counters report.
		stats.EnableContentionProfiles(5, int(time.Millisecond))
		ln, err := stats.Serve(*statsAddr, func() any {
			ms := master.StatsSnapshot()
			nfsByLoc := ms.Locations
			ms.Locations = nil
			doc := map[string]any{
				"master":   ms,
				"nfs":      nfsByLoc,
				"secchan":  secchan.StatsSnapshot(),
				"authserv": auth.StatsSnapshot(),
				// Zero-copy wire path accounting (DESIGN.md §12); also
				// embedded per-location under "nfs" as wire_copy.
				"wire_copy": stats.WireCopySnapshot(),
			}
			// The disk store's WAL counters also appear per-location
			// under "nfs"; the top-level section is the convenient
			// handle for dashboards and the CI recovery smoke.
			if ss := fsys.StorageStats(); ss != nil {
				doc["storage"] = ss
			}
			return doc
		})
		if err != nil {
			die(err)
		}
		fmt.Printf("sfssd: stats on http://%s/stats\n", ln.Addr())
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		die(err)
	}
	fmt.Printf("sfssd: serving %s on %s\n", path.String(), l.Addr())
	die(master.ListenAndServe(l))
}

func registerUser(auth *authserv.Server, db *authserv.DB, rng *prng.Generator, spec string) error {
	parts := strings.SplitN(spec, ":", 4)
	if len(parts) != 4 {
		return fmt.Errorf("bad -user %q (want name:uid:password:keyfile)", spec)
	}
	name, uidStr, password, kf := parts[0], parts[1], parts[2], parts[3]
	uid, err := strconv.ParseUint(uidStr, 10, 32)
	if err != nil {
		return fmt.Errorf("bad uid in -user %q: %w", spec, err)
	}
	var key *rabin.PrivateKey
	if _, err := os.Stat(kf); err == nil {
		key, err = keyfile.Load(kf)
		if err != nil {
			return err
		}
	} else {
		key, err = rabin.GenerateKey(rng, 1024)
		if err != nil {
			return err
		}
		if err := keyfile.Save(kf, key); err != nil {
			return err
		}
		fmt.Printf("sfssd: generated key for %s in %s\n", name, kf)
	}
	return auth.Register(db, name, uint32(uid), []uint32{uint32(uid)}, authserv.RegisterOptions{
		Password:   password,
		PrivateKey: key,
	})
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "sfssd:", err)
	os.Exit(1)
}
