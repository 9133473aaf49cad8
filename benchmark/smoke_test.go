package main

import (
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at a hundredth of its size, untraced
// and traced, plus the ladder at one iteration, and holds the output
// to BENCHMARK.json: every workload and metric it names appears, with
// its unit, and nothing else does but the one ungated workload.
func TestSmoke(t *testing.T) {
	var spec benchSpec
	if err := loadJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	// commit_small runs and reports like the others but BENCHMARK.json
	// leaves it out: it waits on fsync, which this sandbox cannot hold
	// steady (README.md, "Workloads").
	ungated := map[string]bool{"commit_small": true}
	gated := map[string]bool{}
	for _, w := range spec.Workloads {
		gated[w.Name] = true
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or reason", w.Name)
		}
	}
	if len(gated)+len(ungated) != len(workloadNames) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d and %d ungated", len(gated), len(workloadNames), len(ungated))
	}
	for _, name := range workloadNames {
		if gated[name] == ungated[name] {
			t.Errorf("workload %s: in BENCHMARK.json = %v, ungated = %v", name, gated[name], ungated[name])
		}
	}

	check := func(t *testing.T, want []specMetric, line runLine) {
		t.Helper()
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("correct=%v failed=%d attempted=%d", line.Correct, line.Failed, line.Attempted)
		}
		named := map[string]bool{}
		for _, m := range want {
			named[m.Name] = true
			got, ok := line.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("metric %s missing from the output", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("metric %s = %v", m.Name, got.Value)
			}
		}
		for name := range line.Metrics {
			if !named[name] {
				t.Errorf("metric %s is in the output but not in BENCHMARK.json", name)
			}
		}
	}

	ladder, err := runLadder(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: name, seed: defaultSeed, rounds: 2, setups: 1, scale: 0.01, dataDir: t.TempDir()}
			plain, _, err := measure(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(t, spec.EndToEnd, plain)
			for _, m := range spec.EndToEnd {
				if plain.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, plain.Metrics[m.Name].Value)
				}
			}
			cfg.trace = true
			traced, _, err := measure(cfg, ladder)
			if err != nil {
				t.Fatal(err)
			}
			check(t, spec.PerLayer, traced)
		})
	}
}

// TestIQRShare pins the spread to Python's
// statistics.quantiles(values, n=4), which the regression driver uses.
func TestIQRShare(t *testing.T) {
	// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqrShare([]float64{3, 1, 2, 10, 9, 8, 4, 5, 7, 6}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
	// quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if got := iqrShare([]float64{10, 20, 40}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1.5", got)
	}
}

func TestVerdict(t *testing.T) {
	sp := func(v float64) *float64 { return &v }
	rep := func(v float64, spread *float64) reported {
		return reported{metricValue: metricValue{Value: v}, Spread: spread}
	}
	lower := specMetric{Name: "op_p50_us", Better: "lower", Bound: 0.25}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	for _, c := range []struct {
		m        specMetric
		old, new reported
		want     string
	}{
		{lower, rep(100, sp(0.1)), rep(110, sp(0.1)), "same"},
		{lower, rep(100, sp(0.1)), rep(130, sp(0.1)), "worse"},
		{lower, rep(100, sp(0.1)), rep(70, sp(0.1)), "better"},
		{lower, rep(100, sp(0.3)), rep(110, sp(0.1)), "unresolved"},
		{higher, rep(100, nil), rep(70, nil), "worse"},
		{higher, rep(100, nil), rep(130, nil), "better"},
		{higher, rep(100, nil), rep(90, nil), "same"},
	} {
		if _, got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.m.Name, c.old.Value, c.new.Value, got, c.want)
		}
	}
}
