// Command sfscd is the SFS client daemon (paper §2.3, §3.3) packaged
// as an interactive shell: where the paper's sfscd answers kernel NFS
// RPCs for /sfs, this reproduction exposes the same client — secure
// channels, HostID verification, automounting, agents, certification
// paths — through a small command interpreter.
//
// Usage:
//
//	sfscd -server HOST=ADDR[,HOST=ADDR...] [-user NAME] [-keyfile key.sfs] \
//	      [-link NAME=TARGET]... [-certpath DIR]...
//
// Commands on stdin:
//
//	ls PATH         list a directory under /sfs
//	ll PATH         long listing with sizes and "%user" owner names
//	cat PATH        print a file
//	put PATH TEXT   write a file
//	rm PATH         remove a file
//	mkdir PATH      create a directory
//	ln NAME TARGET  create an agent symlink in /sfs
//	pwd PATH        print the self-certifying pathname of PATH's server
//	bookmark NAME PATH   record a secure bookmark for PATH's server
//	bookmarks       list secure bookmarks
//	block HOSTID    block a HostID in this agent (no other user affected)
//	sfs             list this user's view of /sfs
//	stats           print the client's pipeline and per-mount counters
//	lat             print per-stage RPC latency (p50/p95/p99, needs -trace)
//	quit
//
// -v reports each command's wall time and how many RPCs it cost.
// -stats ADDR serves the same counters as JSON at http://ADDR/stats.
// -quiet turns off the single-line dial/close connection log.
// -trace records a per-RPC stage span for every mount's calls into a
// ring of the last 256 and per-stage histograms; -trace-slow DUR
// (which implies -trace) logs a one-line stage waterfall for RPCs
// slower than DUR (DESIGN.md §13).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/keyfile"
	"repro/internal/stats"
)

// loggedConn meters one dialed connection and emits a single close
// line with duration and byte counts.
type loggedConn struct {
	net.Conn
	location string
	start    time.Time
	logf     func(format string, args ...interface{})
	in, out  atomic.Uint64
	once     sync.Once
}

func (c *loggedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c *loggedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

func (c *loggedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() {
		c.logf("close location=%s dur=%s in=%d out=%d",
			c.location, time.Since(c.start).Round(time.Millisecond), c.in.Load(), c.out.Load())
	})
	return err
}

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	servers := flag.String("server", "", "comma-separated HOST=ADDR map for dialing locations")
	user := flag.String("user", "user", "local user name")
	kf := flag.String("keyfile", "", "user private key for authentication")
	verbose := flag.Bool("v", false, "report wall time and RPC count per command")
	statsAddr := flag.String("stats", "", "serve JSON counters and pprof on this address")
	quiet := flag.Bool("quiet", false, "suppress per-connection dial/close logging")
	trace := flag.Bool("trace", false, "record per-RPC stage spans and latency histograms")
	traceSlow := flag.Duration("trace-slow", 0, "log a stage waterfall for RPCs slower than this (implies -trace)")
	var links, certpaths listFlag
	flag.Var(&links, "link", "agent symlink NAME=TARGET (repeatable)")
	flag.Var(&certpaths, "certpath", "certification path directory (repeatable)")
	flag.Parse()

	log.SetPrefix("sfscd: ") // connection and slow-rpc lines
	var connLog func(format string, args ...interface{})
	if !*quiet {
		connLog = log.Printf
	}

	addrs := map[string]string{}
	if *servers != "" {
		for _, kv := range strings.Split(*servers, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				die(fmt.Errorf("bad -server entry %q", kv))
			}
			addrs[parts[0]] = parts[1]
		}
	}
	cfg := client.Config{
		Dial: func(location string) (net.Conn, error) {
			addr, ok := addrs[location]
			if !ok {
				addr = location // fall back to dialing the location itself
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil || connLog == nil {
				return conn, err
			}
			connLog("dial location=%s addr=%s", location, addr)
			return &loggedConn{Conn: conn, location: location, start: time.Now(), logf: connLog}, nil
		},
		RNG:             prng.New(),
		EnhancedCaching: true,
	}
	if *trace || *traceSlow > 0 {
		cfg.TraceSpans = stats.TraceSpans
		cfg.TraceSlow = *traceSlow
	}
	cl, err := client.New(cfg)
	if err != nil {
		die(err)
	}
	if *statsAddr != "" {
		// See sfssd: contention profiling comes with the endpoint.
		stats.EnableContentionProfiles(5, int(time.Millisecond))
		ln, err := stats.Serve(*statsAddr, func() any { return cl.StatsSnapshot() })
		if err != nil {
			die(err)
		}
		fmt.Printf("sfscd: stats on http://%s/stats\n", ln.Addr())
	}
	a := agent.New(*user, prng.New())
	if *kf != "" {
		key, err := keyfile.Load(*kf)
		if err != nil {
			die(err)
		}
		a.AddKey(key)
	}
	for _, l := range links {
		parts := strings.SplitN(l, "=", 2)
		if len(parts) != 2 {
			die(fmt.Errorf("bad -link %q", l))
		}
		a.Symlink(parts[0], parts[1])
	}
	if len(certpaths) > 0 {
		a.SetCertPaths(certpaths)
	}
	cl.RegisterAgent(*user, a)

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("sfs> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			rpc0 := cl.TotalRPCs()
			t0 := time.Now()
			quit := run(cl, a, *user, line)
			if *verbose {
				fmt.Printf("(%s, %d RPCs)\n",
					time.Since(t0).Round(time.Microsecond), cl.TotalRPCs()-rpc0)
			}
			if quit {
				return
			}
		}
		fmt.Print("sfs> ")
	}
}

func run(cl *client.Client, a *agent.Agent, user, line string) bool {
	fields := strings.Fields(line)
	cmd := fields[0]
	arg := func(i int) string {
		if i < len(fields) {
			return fields[i]
		}
		return ""
	}
	switch cmd {
	case "quit", "exit":
		return true
	case "ls":
		ents, err := cl.ReadDir(user, arg(1))
		if err != nil {
			warn(err)
			return false
		}
		for _, e := range ents {
			fmt.Println(e.Name)
		}
	case "ll":
		dir := strings.TrimSuffix(arg(1), "/")
		ents, err := cl.ReadDir(user, dir)
		if err != nil {
			warn(err)
			return false
		}
		for _, e := range ents {
			attr, err := cl.Lstat(user, dir+"/"+e.Name)
			if err != nil {
				warn(err)
				continue
			}
			owner, err := cl.UserName(user, dir, attr.UID)
			if err != nil {
				owner = fmt.Sprintf("%d", attr.UID)
			}
			fmt.Printf("%04o %-12s %8d %s\n", attr.Mode, owner, attr.Size, e.Name)
		}
	case "rm":
		if err := cl.Remove(user, arg(1)); err != nil {
			warn(err)
		}
	case "mkdir":
		if err := cl.Mkdir(user, arg(1), 0o755); err != nil {
			warn(err)
		}
	case "cat":
		data, err := cl.ReadFile(user, arg(1))
		if err != nil {
			warn(err)
			return false
		}
		os.Stdout.Write(data) //nolint:errcheck
		fmt.Println()
	case "put":
		// Unlike client.WriteFile (flush only — acknowledged unstable),
		// put ends with a COMMIT: once the prompt returns, the data must
		// survive a server crash. The CI recovery smoke relies on this.
		if err := putDurable(cl, user, arg(1), strings.Join(fields[2:], " ")); err != nil {
			warn(err)
		}
	case "ln":
		a.Symlink(arg(1), arg(2))
	case "pwd":
		p, err := cl.SelfPath(user, arg(1))
		if err != nil {
			warn(err)
			return false
		}
		fmt.Println(p)
	case "bookmark":
		p, err := cl.SelfPath(user, arg(2))
		if err != nil {
			warn(err)
			return false
		}
		parsed, err := core.Parse(p)
		if err != nil {
			warn(err)
			return false
		}
		a.Bookmark(arg(1), parsed)
		a.Symlink(arg(1), p)
	case "bookmarks":
		for name, p := range a.Bookmarks() {
			fmt.Printf("%-16s %s\n", name, p)
		}
	case "block":
		id, err := core.ParseHostID(arg(1))
		if err != nil {
			warn(err)
			return false
		}
		a.Block(id)
	case "sfs":
		for _, name := range cl.ListSFS(user) {
			fmt.Println(name)
		}
	case "stats":
		out, err := json.MarshalIndent(cl.StatsSnapshot(), "", "  ")
		if err != nil {
			warn(err)
			return false
		}
		fmt.Println(string(out))
	case "lat":
		// Derived p50/p95/p99 per stage instead of raw bucket dumps;
		// the full histograms stay in the JSON "stats" output.
		any := false
		for _, m := range cl.StatsSnapshot().Mounts {
			if m.Stages == nil || m.Stages.Total.Count == 0 {
				continue
			}
			any = true
			fmt.Printf("%s\n%s", m.Path, m.Stages.Table())
		}
		if !any {
			fmt.Println("no stage data (start sfscd with -trace)")
		}
	default:
		fmt.Println("commands: ls ll cat put rm mkdir ln pwd bookmark bookmarks block sfs stats lat quit")
	}
	return false
}

// putDurable writes text to path and waits for the server to commit
// it to stable storage.
func putDurable(cl *client.Client, user, path, text string) error {
	f, err := cl.Create(user, path, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte(text), 0); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return f.Close()
}

func warn(err error) { fmt.Fprintln(os.Stderr, "sfscd:", err) }

func die(err error) {
	fmt.Fprintln(os.Stderr, "sfscd:", err)
	os.Exit(1)
}
