// Command sfsbench regenerates the tables and figures of the paper's
// evaluation section (§4). Each figure builds the stacks it compares
// — the local substrate, NFS 3 over UDP and TCP, and SFS with and
// without encryption and enhanced caching — as lab worlds on loopback,
// every connection shaped by the calibrated hardware model of
// internal/netsim, runs the paper's workload, and prints measured
// values next to the paper's where the paper states numbers. Beside
// Figures 5–9 it runs the disk-store crash-recovery figure (recovery);
// logins, warm reads and the per-stage latency waterfall are measured
// by benchmark/run.sh. -quick runs the sizes internal/bench's shape
// tests check.
//
// Usage:
//
//	sfsbench [-quick] [-fig 5|6|7|8|9|recovery|all] [-json dir]
//	sfsbench -list
//
// -list prints every registered figure key alongside the
// BENCH_<slug>.json file it regenerates, without running anything.
//
// With -json, every figure is also written to dir as a
// machine-readable BENCH_<slug>.json (schema in EXPERIMENTS.md), so
// the performance trajectory can be tracked across changes.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	fig := flag.String("fig", "all", "which figure to regenerate: a key from -list, or all")
	jsonDir := flag.String("json", "", "directory to write BENCH_*.json files into (empty disables)")
	list := flag.Bool("list", false, "list figure keys and their BENCH_*.json slugs, then exit")
	flag.Parse()

	if *list {
		fmt.Printf("%-10s %-34s %s\n", "KEY", "FIGURE", "JSON")
		for _, spec := range bench.Registry {
			fmt.Printf("%-10s %-34s BENCH_%s.json\n", spec.Key, spec.ID, bench.SlugForID(spec.ID))
		}
		return
	}

	opts := bench.Options{Quick: *quick, Out: os.Stdout}
	var order []bench.FigureSpec
	if *fig == "all" {
		order = bench.Registry
	} else {
		for _, spec := range bench.Registry {
			if spec.Key == *fig {
				order = []bench.FigureSpec{spec}
				break
			}
		}
		if len(order) == 0 {
			fmt.Fprintf(os.Stderr, "sfsbench: unknown figure %q (see -list)\n", *fig)
			os.Exit(2)
		}
	}
	for _, spec := range order {
		f, err := spec.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfsbench: figure %s: %v\n", spec.Key, err)
			os.Exit(1)
		}
		if *jsonDir != "" {
			path, err := f.WriteJSON(*jsonDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sfsbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}
