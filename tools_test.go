package repro

// End-to-end test of the command-line tools: builds the binaries and
// drives a full deployment through their public interfaces — the way
// a downstream user would.
//
// Tier-1 practice: the concurrent RPC pipeline makes the race
// detector part of the bar. Alongside `go test ./...`, run
//
//	go test -race ./internal/sunrpc ./internal/secchan ./internal/xdr ./internal/nfs ./internal/client ./internal/stats ./internal/vfs ./internal/storage/... ./internal/server ./internal/crypto/... ./internal/lab ./internal/netsim
//
// before merging — those packages share connections between the
// reader loop, the dispatch worker pool, and readahead/write-behind
// futures, and their stress tests are written to surface cross-talk
// only a race build catches: client.TestConcurrentRPCPipelineOneChannel
// for reads, client.TestConcurrentWriteSyncCloseOneFile (WriteAt, Sync,
// and Close racing on one File) and client.TestMixedReadWriteOneChannel
// (both pipelines draining each other on one channel) for writes.
// internal/stats rides along because every layer above hammers its
// counters concurrently; stats.TestConcurrentIncrementAndSnapshot
// races increments against snapshots directly. The sharded server hot
// path added its own targets: vfs.TestStressNamespaceVsData
// (Create/Rename/Remove interleaved with Read/Write/Commit across the
// striped node table, including the cross-directory rename pattern
// that deadlocks under naive lock orders), vfs.TestStressRestartVsWrite
// (disk-store crash and replay racing unstable writes), and
// nfs.TestConcurrentLeaseAttachDetachInvalidate plus
// nfs.TestStalledSessionDoesNotBlockWriters (striped lease table and
// the no-RPC-under-lock rule). The client data block cache adds
// nfs.TestDataCacheStressRace (concurrent readers, a local writer,
// and a remote writer whose callbacks invalidate mid-flight, under a
// tiny budget so eviction churns) and
// nfs.TestSingleFlightSharesColdRead (cold-read flight sharing). The
// durable storage layer adds wal.TestConcurrentAppendSync (group
// commit: appenders racing the leader/follower fsync protocol) and
// vfs.TestDiskRestartConcurrentWrites (crash-replay state swap racing
// in-flight writes). The zero-copy wire path adds internal/xdr (gather
// encoders borrow caller slices that dispatch workers seal) and
// secchan.TestConcurrentGatherWritesRace (many goroutines entering the
// channel's one sealer through Write and WriteSegments must keep the
// shared ARC4 key stream aligned). Session establishment (DESIGN.md §14)
// adds internal/server: server.TestHandshakeStorm races full key
// negotiations and ticket-chained resumptions from many clients
// through the negotiation pool, the admission counters, and the
// single-use resumption cache at once. Checkpointing and paging
// (DESIGN.md §15) add vfs.TestCheckpointConcurrentWrites (namespace
// mutators and stable writers racing a stream of checkpoints through
// the quiesce lock) and diskstore.TestCheckpointConcurrentReads
// (readers faulting cold pages while the image writer flushes and
// walks the extent index); since checkpoints do their bulk I/O with
// writers running, the first also races COMMITs and ends in a crash and
// a replay, and wal.TestSyncedNeverPassesWritten races spilling
// appenders, sync leaders and rotations. Configuration is per stack, with no
// process-wide switch (TestNoPackageLevelSetters below keeps it so):
// lab.TestTwoConfigurationsOneProcess runs an encrypted and a plaintext
// stack side by side. internal/netsim joined: every dispatch worker
// enters its disk decorator at once (netsim.TestDiskStoreConcurrent).
// vfs.TestStressCrossingDirectoryRenames races a → b/a against b → a/b:
// the ancestor walk that refuses a cycle reads parent pointers under
// the rename mutex alone.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNoPackageLevelSetters: a server or a client is configured by the
// arguments of the function that builds it. A receiver-less Set…
// function in a library package is a process-wide switch that tests
// and stacks sharing the process fight over.
func TestNoPackageLevelSetters(t *testing.T) {
	setter := regexp.MustCompile(`(?m)^func (Set[A-Z]\w*)`)
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range setter.FindAllSubmatch(src, -1) {
			t.Errorf("%s: %s is a package-level setter; take the value where the server or client is built", filepath.ToSlash(path), m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGofmt: every Go file of the program is in gofmt's form, so a
// diff never carries reformatting (CI also runs `gofmt -l`).
func TestGofmt(t *testing.T) {
	check := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", filepath.ToSlash(path), err)
		} else if !bytes.Equal(src, want) {
			t.Errorf("%s is not gofmt-clean; run gofmt -w on it", filepath.ToSlash(path))
		}
	}
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range roots {
		check(path)
	}
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				check(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// parseProgram parses every non-test Go file of the module outside
// hidden directories and hands each to visit with its slash path.
func parseProgram(t *testing.T, visit func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoTestOnlyExports: an exported function, method, type or
// package-level var under internal/ exists because some program in this
// module uses it. One that only tests reference is a second surface to
// keep working for nobody; it belongs in the _test.go that uses it, or
// goes. Consts are exempt (see below). References are matched by name
// over every non-test file in the module (go/parser only, no type
// information), so a method shares its name's fate with every other
// use of that name — coarse, but it has no false alarms to silence and
// it caught every entry of ROADMAP item 9(a).
// Blind spot: a method passes when any type's same-named method is used (sunrpc's ListenAndServe hid so).
func TestNoTestOnlyExports(t *testing.T) {
	// Kept on purpose, each for the reason given.
	allowed := map[string]string{
		"internal/agent: Agent.Unblock":                 "paper §2.6: the undo of Agent.Block, a per-user HostID block; no daemon command reaches either end of it yet",
		"internal/agent: Agent.Unlink":                  "the undo of Agent.Symlink: a dynamic /sfs link a user made must be removable",
		"internal/agent: Agent.Keys":                    "lists the agent's public keys; lab's assembly test checks a user's agent through it",
		"internal/authserv: ImportPublic":               "paper §2.5.2: the other half of `sfsauthd export`, a public database a peer authserver loads read-only",
		"internal/authserv: Server.SetGuestCredentials": "paper feature with no daemon route: credentials for valid logins whose key is in no database",
	}
	referenced := map[string]bool{}
	type export struct{ id, name string }
	var exports []export
	parseProgram(t, func(path string, f *ast.File) {
		declared := map[*ast.Ident]bool{}
		note := func(id *ast.Ident, name string) {
			declared[id] = true
			if id.IsExported() && strings.HasPrefix(path, "internal/") {
				exports = append(exports, export{filepath.ToSlash(filepath.Dir(path)) + ": " + name, id.Name})
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv != nil {
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				note(decl.Name, name)
			case *ast.GenDecl:
				// Consts are exempt: protocol tables such as
				// nfs.ErrServerFault are wire definitions.
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						note(spec.Name, spec.Name.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if decl.Tok == token.VAR {
								note(id, id.Name)
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				referenced[id.Name] = true
			}
			return true
		})
	})
	for _, e := range exports {
		switch _, ok := allowed[e.id]; {
		case !referenced[e.name] && !ok:
			t.Errorf("%s is exported but no non-test file references it: delete it, or move it into the test that uses it", e.id)
		case referenced[e.name] && ok:
			t.Errorf("%s is referenced by non-test code now; drop it from the allowlist", e.id)
		}
	}
}

// TestNoTestOnlyConfig: a setting exists because a deployment sets it.
// A config struct is an exported struct under internal/ whose name ends
// in Config, Options or Policy. Each of its exported fields must be set
// by some non-test file outside the declaring package: a
// composite-literal key, or an assignment to a selector. Passing on the
// same-named field of another value (Foo: cfg.Foo) does not count: a
// layer forwarding a knob is not a deployment choosing it. A field only
// tests set is a second behaviour to keep working for nobody; it goes,
// with the code path it selects. Matched by name, like its siblings
// (go/parser only, no type information).
func TestNoTestOnlyConfig(t *testing.T) {
	// Kept on purpose, each for the reason given.
	allowed := map[string]string{
		"internal/client: Config.LocalUsers":  "paper's libsfs %name convention (a client-side uid→name table); no daemon route sets it yet",
		"internal/client: Config.TempKeyLife": "the only way to exercise hourly temporary-key rotation until the client takes an injectable clock",
	}
	configName := regexp.MustCompile(`(Config|Options|Policy)$`)
	type field struct{ id, dir, name string }
	var fields []field
	setIn := map[string]map[string]bool{} // field name → dirs of non-test files that set it
	parseProgram(t, func(path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !configName.MatchString(ts.Name.Name) {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, field{dir + ": " + ts.Name.Name + "." + id.Name, dir, id.Name})
						}
					}
				}
			}
		}
		set := func(name string, value ast.Expr) {
			if sel, ok := value.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				return // passed on, not chosen
			}
			if setIn[name] == nil {
				setIn[name] = map[string]bool{}
			}
			setIn[name][dir] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					set(key.Name, n.Value)
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						var value ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							value = n.Rhs[i]
						}
						set(sel.Sel.Name, value)
					}
				}
			}
			return true
		})
	})
	for _, fl := range fields {
		deployed := false
		for dir := range setIn[fl.name] {
			deployed = deployed || dir != fl.dir
		}
		switch _, ok := allowed[fl.id]; {
		case !deployed && !ok:
			t.Errorf("%s is set by no non-test file outside its package: delete it and the code path it selects, or set it where a deployment is built", fl.id)
		case deployed && ok:
			t.Errorf("%s is set by a deployment now; drop it from the allowlist", fl.id)
		}
	}
}

// TestNoProcessWideCounters: a counter belongs to the server, client or
// connection whose work it counts. One in a package-level var is shared
// by every stack in the process: two stacks' numbers mix, and a switch
// set for one stack changes the others. This fails on a package-level
// var, in non-test code under internal/, whose type holds a stats
// Counter, Gauge or Histogram or a sync/atomic value — through fields,
// arrays, maps, pointers and the package's own named types. Types are
// read off the syntax with go/parser alone, like the guards above.
func TestNoProcessWideCounters(t *testing.T) {
	// Kept on purpose, each for the reason given.
	allowed := map[string]string{
		"internal/stats: wireCopy":       "benchmark/trace.go reads it through stats.WireCopySnapshot, and a daemon runs one wire role",
		"internal/secchan: chanStats":    "sfssd's /stats serves its snapshot (cmd/sfssd/main.go)",
		"internal/server: heapHigh":      "a process property: the heap belongs to the process, not to a stack",
		"internal/server: goroutineHigh": "a process property: goroutines belong to the process, not to a stack",
		"internal/vfs: bootCount":        "uniqueness across every FS in the process is its purpose",
		"internal/xdr: poisonOnPut":      "the XDR_POISON debug mode, fixed from the environment at start-up",
	}
	type named struct {
		typ ast.Expr
		imp map[string]string // import name → path, in the declaring file
	}
	type global struct {
		id  string
		typ ast.Expr
		imp map[string]string
	}
	fset := token.NewFileSet()
	types := map[string]map[string]named{} // package dir → type name → declaration
	var globals []global
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := map[string]string{}
		for _, is := range f.Imports {
			p := strings.Trim(is.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if is.Name != nil {
				name = is.Name.Name
			}
			imp[name] = p
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if types[dir] == nil {
			types[dir] = map[string]named{}
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					types[dir][s.Name.Name] = named{s.Type, imp}
				case *ast.ValueSpec:
					if gd.Tok != token.VAR {
						continue
					}
					for i, n := range s.Names {
						typ := s.Type
						if typ == nil && i < len(s.Values) {
							typ = s.Values[i] // a literal or new(T) says its type
							if u, ok := typ.(*ast.UnaryExpr); ok {
								typ = u.X
							}
							switch v := typ.(type) {
							case *ast.CompositeLit:
								typ = v.Type
							case *ast.CallExpr:
								if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "new" && len(v.Args) == 1 {
									typ = v.Args[0]
								}
							}
						}
						globals = append(globals, global{dir + ": " + n.Name, typ, imp})
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var holds func(dir string, e ast.Expr, imp map[string]string, seen map[string]bool) bool
	holds = func(dir string, e ast.Expr, imp map[string]string, seen map[string]bool) bool {
		switch e := e.(type) {
		case *ast.Ident:
			if n, ok := types[dir][e.Name]; ok && !seen[e.Name] {
				seen[e.Name] = true
				return holds(dir, n.typ, n.imp, seen)
			}
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok {
				switch imp[x.Name] {
				case "sync/atomic":
					return true
				case "repro/internal/stats":
					return e.Sel.Name == "Counter" || e.Sel.Name == "Gauge" || e.Sel.Name == "Histogram"
				}
			}
		case *ast.StarExpr:
			return holds(dir, e.X, imp, seen)
		case *ast.ArrayType:
			return holds(dir, e.Elt, imp, seen)
		case *ast.MapType:
			return holds(dir, e.Key, imp, seen) || holds(dir, e.Value, imp, seen)
		case *ast.IndexExpr: // atomic.Pointer[T]
			return holds(dir, e.X, imp, seen)
		case *ast.StructType:
			for _, f := range e.Fields.List {
				if holds(dir, f.Type, imp, seen) {
					return true
				}
			}
		}
		return false
	}
	flagged := map[string]bool{}
	for _, g := range globals {
		if !holds(g.id[:strings.Index(g.id, ":")], g.typ, g.imp, map[string]bool{}) {
			continue
		}
		flagged[g.id] = true
		if _, ok := allowed[g.id]; !ok {
			t.Errorf("%s is a process-wide counter: give it to the server, client or connection whose work it counts", g.id)
		}
	}
	for id := range allowed {
		if !flagged[id] {
			t.Errorf("%s is no process-wide counter now; drop it from the allowlist", id)
		}
	}
}

// TestNodeFieldsChangeInApplyOnly: journal replay reproduces the live
// tree because both run the transitions of internal/vfs/apply.go and
// nothing else changes a node (DESIGN.md §11). A namespace or attribute
// field of a node written anywhere else in the package is a second copy
// of a transition that replay does not know about. Matched by field
// name with go/parser alone, like the guards above.
func TestNodeFieldsChangeInApplyOnly(t *testing.T) {
	// Functions that build a node no record describes.
	allowed := map[string]string{
		"initTree":    "the root directory is implicit: no record creates it, so every replay starts from the same node 1",
		"installNode": "a checkpoint-image node is a whole node, not a transition; no live operation writes one",
	}
	fields := map[string]bool{"attr": true, "nlink": true, "children": true, "parent": true, "target": true, "dead": true}
	// written names the node field an assigned expression reaches
	// through: n.attr.Mode → attr, d.children[name] → children.
	var written func(e ast.Expr) string
	written = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if fields[e.Sel.Name] {
				return e.Sel.Name
			}
			return written(e.X)
		case *ast.IndexExpr:
			return written(e.X)
		}
		return ""
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/vfs", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "apply.go"
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, f := range pkgs["vfs"].Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			report := func(at ast.Node, what string) {
				if _, ok := allowed[fd.Name.Name]; ok {
					used[fd.Name.Name] = true
					return
				}
				t.Errorf("%s: %s %s outside apply.go; make it part of the transition that applies the record", fset.Position(at.Pos()), fd.Name.Name, what)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
						lhs = n.Args[:1]
					}
				case *ast.CompositeLit:
					if id, ok := n.Type.(*ast.Ident); ok && id.Name == "node" {
						report(n, "builds a node")
					}
				}
				for _, e := range lhs {
					if field := written(e); field != "" {
						report(e, "writes a node's "+field)
					}
				}
				return true
			})
		}
	}
	for name := range allowed {
		if !used[name] {
			t.Errorf("%s no longer builds a node; drop it from the allowlist", name)
		}
	}
}

// lockedBuffer collects a child process's output; os/exec writes from
// its own copier goroutine, so reads must synchronize.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// buildTools compiles the commands once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"sfskey", "sfssd", "sfscd", "sfsauthd", "sfsrodb", "sfsagent"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("nothing listening on %s", addr)
}

func TestToolsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()

	// 1. Generate server and user keys.
	srvKey := filepath.Join(work, "server.sfs")
	run(t, filepath.Join(bin, "sfskey"), "gen", "-o", srvKey, "-bits", "768")
	pathOut := run(t, filepath.Join(bin, "sfskey"), "path", "-k", srvKey, "-location", "files.example.com")
	selfPath := strings.TrimSpace(pathOut)
	if !strings.HasPrefix(selfPath, "/sfs/files.example.com:") {
		t.Fatalf("sfskey path printed %q", selfPath)
	}
	hostID := selfPath[strings.LastIndexByte(selfPath, ':')+1:]

	// 2. Seed content and start sfssd with one password user.
	seedDir := filepath.Join(work, "seed")
	if err := os.MkdirAll(filepath.Join(seedDir, "pub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(seedDir, "pub", "hello.txt"), []byte("tool-served content\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)
	statsAddr := freePort(t)
	userKeyPath := filepath.Join(work, "alice.sfs")
	sd := exec.Command(filepath.Join(bin, "sfssd"),
		"-listen", addr,
		"-location", "files.example.com",
		"-keyfile", srvKey,
		"-seed", seedDir,
		"-stats", statsAddr,
		"-user", "alice:1000:correct horse:"+userKeyPath,
	)
	sdOut := &lockedBuffer{}
	sd.Stdout, sd.Stderr = sdOut, sdOut
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("sfssd output:\n%s", sdOut.String())
		}
	})
	if err := sd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sd.Process.Kill(); sd.Wait() }) //nolint:errcheck
	waitListening(t, addr)

	// 3. sfskey fetch: the SRP password flow downloads the
	// self-certifying pathname and the private key.
	fetched := filepath.Join(work, "fetched.sfs")
	fetchOut := run(t, filepath.Join(bin, "sfskey"), "fetch",
		"-server", addr, "-location", "files.example.com", "-hostid", hostID,
		"-user", "alice", "-password", "correct horse", "-o", fetched)
	if !strings.Contains(fetchOut, selfPath) {
		t.Fatalf("fetch did not return the self-certifying pathname:\n%s", fetchOut)
	}
	if _, err := os.Stat(fetched); err != nil {
		t.Fatalf("fetched key not saved: %v", err)
	}

	// 4. Drive sfscd interactively: read the served file through the
	// self-certifying pathname, write one back as alice. -v makes the
	// shell report wall time and RPC count after each command.
	cd := exec.Command(filepath.Join(bin, "sfscd"),
		"-server", "files.example.com="+addr,
		"-user", "alice", "-keyfile", fetched, "-v")
	stdin, err := cd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cd.Stderr = cd.Stdout
	if err := cd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cd.Process.Kill(); cd.Wait() }) //nolint:errcheck
	fmt.Fprintf(stdin, "cat %s/pub/hello.txt\n", selfPath)
	fmt.Fprintf(stdin, "pwd %s/pub\n", selfPath)
	fmt.Fprintln(stdin, "stats")
	fmt.Fprintln(stdin, "quit")
	out, _ := io.ReadAll(bufio.NewReader(stdout))
	if !strings.Contains(string(out), "tool-served content") {
		t.Fatalf("sfscd cat output:\n%s", out)
	}
	if !strings.Contains(string(out), selfPath) {
		t.Fatalf("sfscd pwd output:\n%s", out)
	}
	if !strings.Contains(string(out), " RPCs)") {
		t.Fatalf("sfscd -v did not report per-command RPC counts:\n%s", out)
	}
	if !strings.Contains(string(out), "readahead_hits") {
		t.Fatalf("sfscd stats command printed no pipeline counters:\n%s", out)
	}
	if !strings.Contains(string(out), "data_hits") {
		t.Fatalf("sfscd stats command printed no data cache counters:\n%s", out)
	}

	// 4b. The sfssd -stats endpoint serves one JSON document covering
	// every instrumented subsystem, with the traffic above recorded.
	resp, err := http.Get("http://" + statsAddr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"master", "nfs", "secchan", "authserv"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("stats snapshot missing %q section (have %d sections)", key, len(snap))
		}
	}
	if !strings.Contains(string(snap["master"]), `"accepts"`) {
		t.Errorf("master section lacks connection counters: %s", snap["master"])
	}

	// 5. Read-only dialect: build a signed database, serve it from a
	// "replica" (no key file involved), fetch and verify.
	dbFile := filepath.Join(work, "fs.sfsro")
	run(t, filepath.Join(bin, "sfsrodb"), "build",
		"-seed", seedDir, "-location", "files.example.com", "-keyfile", srvKey,
		"-o", dbFile)
	roAddr := freePort(t)
	ro := exec.Command(filepath.Join(bin, "sfsrodb"), "serve", "-db", dbFile, "-listen", roAddr)
	roOut := &lockedBuffer{}
	ro.Stdout, ro.Stderr = roOut, roOut
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("sfsrodb serve output:\n%s", roOut.String())
		}
	})
	if err := ro.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Process.Kill(); ro.Wait() }) //nolint:errcheck
	waitListening(t, roAddr)
	got := run(t, filepath.Join(bin, "sfsrodb"), "get",
		"-addr", roAddr, "-path", selfPath, "-file", "pub/hello.txt")
	if !strings.Contains(got, "tool-served content") {
		t.Fatalf("sfsrodb get returned %q", got)
	}
	// The replica logs one structured line per connection.
	logDeadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(roOut.String(), "accept peer=") {
		if time.Now().After(logDeadline) {
			t.Fatalf("sfsrodb serve never logged the accept:\n%s", roOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// 6. sfsauthd: manage a database offline and export the public
	// half.
	dbPath := filepath.Join(work, "users.db")
	run(t, filepath.Join(bin, "sfsauthd"), "init", "-db", dbPath)
	run(t, filepath.Join(bin, "sfsauthd"), "adduser",
		"-db", dbPath, "-selfpath", selfPath, "-user", "bob", "-uid", "1001",
		"-password", "pw", "-keyfile", filepath.Join(work, "bob.sfs"))
	listing := run(t, filepath.Join(bin, "sfsauthd"), "list", "-db", dbPath)
	if !strings.Contains(listing, "bob") || !strings.Contains(listing, "+srp") {
		t.Fatalf("sfsauthd list:\n%s", listing)
	}
	pubPath := filepath.Join(work, "public.db")
	run(t, filepath.Join(bin, "sfsauthd"), "export", "-db", dbPath, "-o", pubPath)
	pub, err := os.ReadFile(pubPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pub) == 0 {
		t.Fatal("empty public export")
	}
}

// TestDiskStoreRecoverySmoke is the CI crash-recovery gate: sfssd
// serves from the disk store, a client writes a file with the durable
// `put` (which ends in an acknowledged COMMIT), the server dies by
// real SIGKILL, and a second sfssd over the same directory must replay
// the WAL and serve the committed bytes back — zero acknowledged-COMMIT
// loss through an actual process kill.
func TestDiskStoreRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()

	srvKey := filepath.Join(work, "server.sfs")
	run(t, filepath.Join(bin, "sfskey"), "gen", "-o", srvKey, "-bits", "768")
	selfPath := strings.TrimSpace(run(t, filepath.Join(bin, "sfskey"), "path",
		"-k", srvKey, "-location", "files.example.com"))
	storeDir := filepath.Join(work, "store")
	adminKey := filepath.Join(work, "admin.sfs")
	addr := freePort(t)

	// startServer boots sfssd over the same store directory; the admin
	// user (uid 0, so it may write at the root) reuses its key file
	// across boots.
	startServer := func() (*exec.Cmd, *lockedBuffer) {
		sd := exec.Command(filepath.Join(bin, "sfssd"),
			"-listen", addr,
			"-location", "files.example.com",
			"-keyfile", srvKey,
			"-store", "disk", "-dir", storeDir,
			"-user", "admin:0:pw:"+adminKey,
		)
		out := &lockedBuffer{}
		sd.Stdout, sd.Stderr = out, out
		if err := sd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			sd.Process.Kill() //nolint:errcheck
			sd.Wait()         //nolint:errcheck
			if t.Failed() {
				t.Logf("sfssd output:\n%s", out.String())
			}
		})
		waitListening(t, addr)
		return sd, out
	}

	// runClient pipes commands through one sfscd session and returns
	// everything it printed.
	runClient := func(script string) string {
		cd := exec.Command(filepath.Join(bin, "sfscd"),
			"-server", "files.example.com="+addr,
			"-user", "admin", "-keyfile", adminKey, "-quiet")
		cd.Stdin = strings.NewReader(script)
		out, err := cd.CombinedOutput()
		if err != nil {
			t.Fatalf("sfscd: %v\n%s", err, out)
		}
		return string(out)
	}

	sd, _ := startServer()
	const payload = "survived a real kill -9"
	runClient(fmt.Sprintf("put %s/crash.txt %s\nquit\n", selfPath, payload))

	// The COMMIT was acknowledged before the prompt returned; now the
	// server dies for real.
	if err := sd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	sd.Wait() //nolint:errcheck

	_, out2 := startServer()
	got := runClient(fmt.Sprintf("cat %s/crash.txt\nquit\n", selfPath))
	if !strings.Contains(got, payload) {
		t.Fatalf("acknowledged COMMIT lost across kill -9: cat printed\n%s", got)
	}
	// The reboot banner reports the replay that recovered it.
	if !strings.Contains(out2.String(), "disk store in") {
		t.Fatalf("second boot did not report the disk store:\n%s", out2.String())
	}
}

// TestDiskStoreMidCheckpointKillSmoke extends the recovery gate to the
// checkpointing path (DESIGN.md §15): sfssd runs with a tiny
// -checkpoint-bytes threshold so the background checkpointer fires
// repeatedly under a stream of durable puts, and the SIGKILL lands
// right after a put acknowledges — racing whatever checkpoint, WAL
// rotation, or image rename is in flight at that instant. The reboot
// must serve every acknowledged file byte-for-byte, from whichever
// image generation survived plus the journal tail. The deterministic
// mid-protocol stages (crash between image write, prev rename, and
// publish rename) are covered by diskstore's
// TestCheckpointAbortedMidProtocol; this smoke proves the same
// contract through real processes.
func TestDiskStoreMidCheckpointKillSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()

	srvKey := filepath.Join(work, "server.sfs")
	run(t, filepath.Join(bin, "sfskey"), "gen", "-o", srvKey, "-bits", "768")
	selfPath := strings.TrimSpace(run(t, filepath.Join(bin, "sfskey"), "path",
		"-k", srvKey, "-location", "files.example.com"))
	storeDir := filepath.Join(work, "store")
	adminKey := filepath.Join(work, "admin.sfs")
	addr := freePort(t)
	statsAddr := freePort(t)

	startServer := func() (*exec.Cmd, *lockedBuffer) {
		sd := exec.Command(filepath.Join(bin, "sfssd"),
			"-listen", addr,
			"-location", "files.example.com",
			"-keyfile", srvKey,
			"-store", "disk", "-dir", storeDir,
			"-checkpoint-bytes", "4096", // checkpoint after nearly every put
			"-stats", statsAddr,
			"-user", "admin:0:pw:"+adminKey,
		)
		out := &lockedBuffer{}
		sd.Stdout, sd.Stderr = out, out
		if err := sd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			sd.Process.Kill() //nolint:errcheck
			sd.Wait()         //nolint:errcheck
			if t.Failed() {
				t.Logf("sfssd output:\n%s", out.String())
			}
		})
		waitListening(t, addr)
		return sd, out
	}

	runClient := func(script string) string {
		cd := exec.Command(filepath.Join(bin, "sfscd"),
			"-server", "files.example.com="+addr,
			"-user", "admin", "-keyfile", adminKey, "-quiet")
		cd.Stdin = strings.NewReader(script)
		out, err := cd.CombinedOutput()
		if err != nil {
			t.Fatalf("sfscd: %v\n%s", err, out)
		}
		return string(out)
	}

	// checkpointCount polls the stats endpoint for the running
	// checkpoint counter.
	checkpointCount := func() uint64 {
		resp, err := http.Get("http://" + statsAddr + "/stats")
		if err != nil {
			return 0
		}
		defer resp.Body.Close()
		var doc struct {
			Storage struct {
				Checkpoint struct {
					Count uint64 `json:"count"`
				} `json:"checkpoint"`
			} `json:"storage"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return 0
		}
		return doc.Storage.Checkpoint.Count
	}

	sd, _ := startServer()

	// Stream durable puts (each ends in an acknowledged COMMIT) until
	// the checkpointer has demonstrably fired at least twice — so the
	// kill lands with a rotated WAL and a published image behind it,
	// and likely another checkpoint in flight.
	payload := func(i int) string { return fmt.Sprintf("checkpointed payload %d survives kill -9", i) }
	var acked int
	deadline := time.Now().Add(30 * time.Second)
	for acked < 4 || checkpointCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("checkpointer never fired twice (count=%d after %d puts)", checkpointCount(), acked)
		}
		runClient(fmt.Sprintf("put %s/ck-%d.txt %s\nquit\n", selfPath, acked, payload(acked)))
		acked++
	}

	// Every put above was acknowledged; now die for real, mid whatever
	// the background checkpointer is doing.
	if err := sd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	sd.Wait() //nolint:errcheck

	_, out2 := startServer()
	for i := 0; i < acked; i++ {
		got := runClient(fmt.Sprintf("cat %s/ck-%d.txt\nquit\n", selfPath, i))
		if !strings.Contains(got, payload(i)) {
			t.Fatalf("acknowledged COMMIT %d lost across mid-checkpoint kill -9: cat printed\n%s", i, got)
		}
	}
	// The reboot banner reports the two recovery phases separately.
	if !strings.Contains(out2.String(), "recovery: checkpoint") {
		t.Fatalf("second boot did not report the recovery phase breakdown:\n%s", out2.String())
	}
}
