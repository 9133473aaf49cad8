// Command benchmark is the raw-regime benchmark of record for this
// repository: the full SFS stack on real loopback TCP with real
// fsyncs and production defaults, six workloads, and a layer ladder
// measured from outside. BENCHMARK.json at the repository root names
// every workload and metric; README.md in this directory explains
// them.
//
// One measured run, the form a regression driver calls:
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// prints every metric by name and unit and ends with one JSON line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
// Without --workload it runs every workload, untraced and traced,
// each in a child process of its own, and writes one result document
// with an env block (-out). -compare OLD NEW diffs two such documents
// against the bounds in BENCHMARK.json; -selfcheck produces two and
// compares them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// defaultSeed is the seed of record. A claim made on it must also
// hold on a second seed (see README.md).
const defaultSeed = 1999

// specFile is the benchmark's definition, at the root of the checkout
// run.sh changes into.
const specFile = "BENCHMARK.json"

// minRounds and setUps shape one run: at least this many timed
// rounds, and set-up repeated this often so setup_s is a median.
const (
	minRounds = 5
	setUps    = 3
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload (default: all, each in a child process)")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of one run's timed phase")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiply every op count and dataset size")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.dataDir, "dir", filepath.Join(".bench_build", "data"), "directory for disk stores and spans")
	out := flag.String("out", filepath.Join(".bench_build", "result.json"), "where a run of every workload writes its result document")
	compare := flag.Bool("compare", false, "compare two result documents: -compare OLD.json NEW.json")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the two results")
	flag.Parse()
	cfg.trace = *trace != 0
	cfg.rounds, cfg.setups = minRounds, setUps

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare OLD.json NEW.json")
			break
		}
		err = compareFiles(specFile, flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		first, second := *out+".first", *out+".second"
		if err = runAll(cfg, first); err == nil {
			if err = runAll(cfg, second); err == nil {
				err = compareFiles(specFile, first, second)
			}
		}
	case cfg.workload == "":
		err = runAll(cfg, *out)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runLine is the last line of a single run's standard output.
type runLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// detailLine precedes it: what the result document records beside
// each median.
type detailLine struct {
	Rounds int `json:"rounds"`
	// Spread is the distance between the first and third quartile of
	// the metric's per-round values, as a share of their median.
	Spread map[string]float64 `json:"spread"`
}

// measure runs one workload in this process and returns its lines.
// A traced run reports ladder beside what it traced; nil measures the
// ladder now.
func measure(cfg runConfig, ladder metricSet) (runLine, detailLine, error) {
	res, err := run(cfg)
	if err != nil {
		return runLine{}, detailLine{}, err
	}
	line := runLine{Attempted: res.attempted(), Failed: res.failed(), Metrics: metricSet{}}
	line.Correct = line.Failed == 0
	detail := detailLine{Rounds: len(res.rounds), Spread: map[string]float64{}}
	if !cfg.trace {
		line.Metrics.put("setup_s", "s", median(res.setupS))
		line.Metrics.put("ops_per_s", "op/s", res.opsPerS())
		line.Metrics.put("op_p50_us", "us", res.opP50US())
		line.Metrics.put("cpu_us_per_op", "us", res.cpuUSPerOp())
		line.Metrics.put("peak_rss_mb", "MB", res.peakRSSMB)
		detail.Spread["setup_s"] = iqrShare(res.setupS)
		detail.Spread["ops_per_s"] = res.spread(roundStat.opsPerS)
		detail.Spread["op_p50_us"] = res.spread(roundStat.p50US)
		detail.Spread["cpu_us_per_op"] = res.spread(roundStat.cpuUSPerOp)
		return line, detail, nil
	}
	if ladder == nil {
		if ladder, err = runLadder(filepath.Join(cfg.dataDir, fmt.Sprintf("ladder-%d", os.Getpid())), false); err != nil {
			return runLine{}, detailLine{}, err
		}
	}
	line.Metrics = perLayer(res, ladder)
	spans := filepath.Join(cfg.dataDir, "spans-"+cfg.workload+".jsonl")
	if err := res.tr.writeSpans(spans); err != nil {
		return runLine{}, detailLine{}, err
	}
	fmt.Printf("spans: %d written to %s\n", len(res.tr.spans), spans)
	return line, detail, nil
}

// runOne is the single-run form.
func runOne(cfg runConfig) error {
	line, detail, err := measure(cfg, nil)
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, cfg.workload, line.Metrics)
	for _, v := range []any{detail, line} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d operations or checks failed", cfg.workload, line.Failed, line.Attempted)
	}
	return nil
}

func printMetrics(w *os.File, workload string, m metricSet) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s\n", workload)
	for _, name := range names {
		fmt.Fprintf(w, "%-40s %16.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// child runs one workload in a process of its own — so peak RSS,
// allocation counters and the program's process-wide switches are
// scoped to it — and parses the last two lines it prints. A run with
// failed operations exits non-zero but still reports.
func child(cfg runConfig, trace int) (runLine, detailLine, error) {
	var line runLine
	var detail detailLine
	self, err := os.Executable()
	if err != nil {
		return line, detail, err
	}
	cmd := exec.Command(self,
		"--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"--trace", strconv.Itoa(trace), "--dir", cfg.dataDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if n := len(lines); n >= 2 && json.Unmarshal(lines[n-1], &line) == nil && json.Unmarshal(lines[n-2], &detail) == nil {
		return line, detail, nil
	}
	if runErr == nil {
		runErr = fmt.Errorf("no result line")
	}
	return line, detail, fmt.Errorf("%s (trace %d): %w", cfg.workload, trace, runErr)
}
