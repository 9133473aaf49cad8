package main

// The result document of a run over every workload, its provenance
// block, and the comparison of two such documents against the bounds
// BENCHMARK.json fixes.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// specMetric is one metric as BENCHMARK.json defines it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is what the benchmark reads of BENCHMARK.json.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadJSON reads a BENCHMARK.json or a result document into v.
func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// reported is one metric in a result document.
type reported struct {
	metricValue
	// Spread is the quartile distance of the per-round values over
	// their median; absent where a metric has one value per run.
	Spread *float64 `json:"spread,omitempty"`
}

// workloadResult is one workload's untraced and traced run.
type workloadResult struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Rounds    int                 `json:"rounds"`
	EndToEnd  map[string]reported `json:"end_to_end"` // from the untraced run
	PerLayer  map[string]reported `json:"per_layer"`  // from the traced run
}

// environment is the provenance two result documents need before
// their numbers may be compared.
type environment struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	Kernel     string   `json:"kernel"`
	DataFS     string   `json:"data_fs"`
	Seed       uint64   `json:"seed"`
	Scale      float64  `json:"scale"`
	Seconds    float64  `json:"seconds"`
	MinRounds  int      `json:"min_rounds"`
	SetUps     int      `json:"setups"`
	Notes      []string `json:"notes"`
}

// resultDoc is what a run over every workload writes.
type resultDoc struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// fsNames maps statfs magic numbers to names.
var fsNames = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
	0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
}

func environmentOf(cfg runConfig) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Kernel: "unknown", DataFS: "unknown",
		Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, MinRounds: cfg.rounds, SetUps: cfg.setups,
		Notes: []string{
			"All traffic crossed the host loopback (127.0.0.1); no network or hardware model was in the path.",
			"fsync latency is this sandbox's file system's, not a storage device's.",
			"End-to-end metrics come from the untraced run, per-layer metrics from the traced run.",
		},
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	var sfs syscall.Statfs_t
	if err := syscall.Statfs(cfg.dataDir, &sfs); err == nil {
		if name, ok := fsNames[int64(sfs.Type)]; ok {
			env.DataFS = name
		} else {
			env.DataFS = fmt.Sprintf("0x%x", int64(sfs.Type))
		}
	}
	return env
}

// runAll runs every workload untraced and traced, each in a child
// process, and writes the result document.
func runAll(cfg runConfig, out string) error {
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return err
	}
	doc := resultDoc{Env: environmentOf(cfg), Workloads: map[string]*workloadResult{}}
	bad := 0
	for _, name := range workloadNames {
		cfg.workload = name
		plain, detail, err := child(cfg, 0)
		if err != nil {
			return err
		}
		traced, _, err := child(cfg, 1)
		if err != nil {
			return err
		}
		wr := &workloadResult{
			Correct:   plain.Correct && traced.Correct,
			Attempted: plain.Attempted + traced.Attempted, Failed: plain.Failed + traced.Failed,
			Rounds:   detail.Rounds,
			EndToEnd: map[string]reported{}, PerLayer: map[string]reported{},
		}
		for n, v := range plain.Metrics {
			r := reported{metricValue: v}
			if s, ok := detail.Spread[n]; ok {
				r.Spread = &s
			}
			wr.EndToEnd[n] = r
		}
		for n, v := range traced.Metrics {
			wr.PerLayer[n] = reported{metricValue: v}
		}
		doc.Workloads[name] = wr
		printMetrics(os.Stdout, name+" (end to end, untraced)", plain.Metrics)
		printMetrics(os.Stdout, name+" (per layer, traced)", traced.Metrics)
		if !wr.Correct {
			bad++
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("result document: %s\n", out)
	if bad > 0 {
		return fmt.Errorf("%d workloads had failed operations or checks", bad)
	}
	return nil
}

// verdict judges one (workload, end-to-end metric) pair: how much
// worse the new median is, as a share of the old, against the bound.
// A change inside the bound is "same" only when both runs' own spread
// is inside it too; otherwise the pair cannot tell and is
// "unresolved".
func verdict(m specMetric, old, new reported) (worse float64, v string) {
	if old.Value != 0 {
		worse = (new.Value - old.Value) / old.Value
	}
	if m.Better == "higher" {
		worse = -worse
	}
	spread := 0.0
	for _, r := range []reported{old, new} {
		if r.Spread != nil && *r.Spread > spread {
			spread = *r.Spread
		}
	}
	switch {
	case worse > m.Bound:
		return worse, "worse"
	case -worse > m.Bound:
		return worse, "better"
	case spread > m.Bound:
		return worse, "unresolved"
	}
	return worse, "same"
}

// compareFiles prints one row per workload and end-to-end metric and
// fails on a regression past its bound or a rise in failures.
func compareFiles(specPath, oldPath, newPath string) error {
	var spec benchSpec
	var oldDoc, newDoc resultDoc
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {oldPath, &oldDoc}, {newPath, &newDoc}} {
		if err := loadJSON(f.path, f.v); err != nil {
			return err
		}
	}
	if o, n := oldDoc.Env, newDoc.Env; o.Seed != n.Seed || o.Scale != n.Scale || o.Seconds != n.Seconds {
		fmt.Printf("warning: runs differ in seed/scale/seconds (%d/%g/%g vs %d/%g/%g)\n",
			o.Seed, o.Scale, o.Seconds, n.Seed, n.Scale, n.Seconds)
	}
	fmt.Printf("%-13s %-14s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "old", "spread", "new", "spread", "worse by", "bound", "verdict")
	counts := map[string]int{}
	moreFailures := 0
	for _, w := range spec.Workloads {
		o, n := oldDoc.Workloads[w.Name], newDoc.Workloads[w.Name]
		if o == nil || n == nil {
			return fmt.Errorf("workload %s missing from a result document", w.Name)
		}
		if n.Failed > o.Failed {
			moreFailures++
			fmt.Printf("%-13s failed operations rose from %d to %d\n", w.Name, o.Failed, n.Failed)
		}
		for _, m := range spec.EndToEnd {
			ov, nv := o.EndToEnd[m.Name], n.EndToEnd[m.Name]
			worse, v := verdict(m, ov, nv)
			counts[v]++
			sp := func(r reported) string {
				if r.Spread == nil {
					return "-"
				}
				return fmt.Sprintf("%.3f", *r.Spread)
			}
			fmt.Printf("%-13s %-14s %14.4f %7s %14.4f %7s %+8.3f %6.2f  %s\n",
				w.Name, m.Name, ov.Value, sp(ov), nv.Value, sp(nv), worse, m.Bound, v)
		}
	}
	fmt.Printf("better %d, same %d, worse %d, unresolved %d\n",
		counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 || moreFailures > 0 {
		return fmt.Errorf("%d metrics worse past their bound, %d workloads with more failures", counts["worse"], moreFailures)
	}
	return nil
}
