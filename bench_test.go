package repro

// One testing.B benchmark per table/figure of the paper's evaluation
// (§4). Each benchmark builds the stack it measures — substrate file
// system, shaped loopback transport, full protocol machinery — and
// runs the paper's workload once per iteration. Figures with several
// phases report per-phase wall time through b.ReportMetric, so
// `go test -bench .` regenerates every row the paper prints.
//
// cmd/sfsbench renders the same experiments as side-by-side tables
// with the paper's reference values.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
)

func buildStack(b *testing.B, kind bench.StackKind) bench.Stack {
	b.Helper()
	st, _, err := bench.Build(kind)
	if err != nil {
		b.Fatalf("Build(%s): %v", kind, err)
	}
	b.Cleanup(st.Close)
	return st
}

// --- Figure 5: latency of an operation that is always a round trip ---

func benchLatency(b *testing.B, kind bench.StackKind) {
	st := buildStack(b, kind)
	if err := st.WriteFile("probe", []byte("x")); err != nil {
		b.Fatal(err)
	}
	if err := st.ChownFail("probe"); err != nil { // warm handle
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.ChownFail("probe"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5LatencyNFSUDP(b *testing.B)   { benchLatency(b, bench.KindNFSUDP) }
func BenchmarkFig5LatencyNFSTCP(b *testing.B)   { benchLatency(b, bench.KindNFSTCP) }
func BenchmarkFig5LatencySFS(b *testing.B)      { benchLatency(b, bench.KindSFS) }
func BenchmarkFig5LatencySFSNoEnc(b *testing.B) { benchLatency(b, bench.KindSFSNoEnc) }

// --- Figure 5: streaming throughput of a sparse sequential read ---

func benchThroughput(b *testing.B, kind bench.StackKind) {
	const size = 4 << 20
	st := buildStack(b, kind)
	if err := st.WriteFile("sparse", nil); err != nil {
		b.Fatal(err)
	}
	if err := st.Truncate("sparse", size); err != nil {
		b.Fatal(err)
	}
	f, err := st.Open("sparse")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 8192)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < size; off += len(buf) {
			if _, err := f.ReadAt(buf, uint64(off)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig5ThroughputNFSUDP(b *testing.B)   { benchThroughput(b, bench.KindNFSUDP) }
func BenchmarkFig5ThroughputNFSTCP(b *testing.B)   { benchThroughput(b, bench.KindNFSTCP) }
func BenchmarkFig5ThroughputSFS(b *testing.B)      { benchThroughput(b, bench.KindSFS) }
func BenchmarkFig5ThroughputSFSNoEnc(b *testing.B) { benchThroughput(b, bench.KindSFSNoEnc) }

// --- Figure 6: the Modified Andrew Benchmark ---

func benchMAB(b *testing.B, kind bench.StackKind) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := buildStack(b, kind) // fresh tree per iteration
		b.StartTimer()
		results, err := bench.MABPhases(st)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, r := range results {
			b.ReportMetric(r.Elapsed.Seconds(), fmt.Sprintf("s-%s", phaseKey(r.Phase)))
		}
		st.Close()
		b.StartTimer()
	}
}

func phaseKey(phase string) string {
	out := make([]rune, 0, len(phase))
	for _, r := range phase {
		if r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}

func BenchmarkFig6MABLocal(b *testing.B)      { benchMAB(b, bench.KindLocal) }
func BenchmarkFig6MABNFSUDP(b *testing.B)     { benchMAB(b, bench.KindNFSUDP) }
func BenchmarkFig6MABNFSTCP(b *testing.B)     { benchMAB(b, bench.KindNFSTCP) }
func BenchmarkFig6MABSFS(b *testing.B)        { benchMAB(b, bench.KindSFS) }
func BenchmarkFig6MABSFSNoCache(b *testing.B) { benchMAB(b, bench.KindSFSNoCache) }

// --- Figure 7: the GENERIC kernel compile (scaled 1/70) ---

func benchCompile(b *testing.B, kind bench.StackKind) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := buildStack(b, kind)
		b.StartTimer()
		if _, err := bench.CompileWorkload(st, 20, 55_000_000); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

func BenchmarkFig7CompileLocal(b *testing.B)    { benchCompile(b, bench.KindLocal) }
func BenchmarkFig7CompileNFSUDP(b *testing.B)   { benchCompile(b, bench.KindNFSUDP) }
func BenchmarkFig7CompileNFSTCP(b *testing.B)   { benchCompile(b, bench.KindNFSTCP) }
func BenchmarkFig7CompileSFS(b *testing.B)      { benchCompile(b, bench.KindSFS) }
func BenchmarkFig7CompileSFSNoEnc(b *testing.B) { benchCompile(b, bench.KindSFSNoEnc) }

// --- Figure 8: Sprite LFS small-file benchmark (scaled to 200 files) ---

func benchSpriteSmall(b *testing.B, kind bench.StackKind) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := buildStack(b, kind)
		b.StartTimer()
		results, err := bench.SpriteSmall(st, 200, 1024)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, r := range results {
			b.ReportMetric(r.Elapsed.Seconds(), fmt.Sprintf("s-%s", phaseKey(r.Phase)))
		}
		st.Close()
		b.StartTimer()
	}
}

func BenchmarkFig8SmallLocal(b *testing.B)      { benchSpriteSmall(b, bench.KindLocal) }
func BenchmarkFig8SmallNFSUDP(b *testing.B)     { benchSpriteSmall(b, bench.KindNFSUDP) }
func BenchmarkFig8SmallNFSTCP(b *testing.B)     { benchSpriteSmall(b, bench.KindNFSTCP) }
func BenchmarkFig8SmallSFS(b *testing.B)        { benchSpriteSmall(b, bench.KindSFS) }
func BenchmarkFig8SmallSFSNoCache(b *testing.B) { benchSpriteSmall(b, bench.KindSFSNoCache) }

// --- Figure 9: Sprite LFS large-file benchmark (4 MB file) ---

func benchSpriteLarge(b *testing.B, kind bench.StackKind) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := buildStack(b, kind)
		b.StartTimer()
		results, err := bench.SpriteLarge(st, 4<<20)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, r := range results {
			b.ReportMetric(r.Elapsed.Seconds(), fmt.Sprintf("s-%s", phaseKey(r.Phase)))
		}
		st.Close()
		b.StartTimer()
	}
}

func BenchmarkFig9LargeLocal(b *testing.B)    { benchSpriteLarge(b, bench.KindLocal) }
func BenchmarkFig9LargeNFSUDP(b *testing.B)   { benchSpriteLarge(b, bench.KindNFSUDP) }
func BenchmarkFig9LargeNFSTCP(b *testing.B)   { benchSpriteLarge(b, bench.KindNFSTCP) }
func BenchmarkFig9LargeSFS(b *testing.B)      { benchSpriteLarge(b, bench.KindSFS) }
func BenchmarkFig9LargeSFSNoEnc(b *testing.B) { benchSpriteLarge(b, bench.KindSFSNoEnc) }
