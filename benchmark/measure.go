package main

// One measured run of one workload: set-up (several times, for a
// steady setup_s), timed rounds of a fixed op count, post-run output
// checks. Every timing metric is a median over rounds.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runConfig is what one run needs to know.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // timed phase lasts at least this long...
	rounds   int     // ...and at least this many rounds
	setups   int     // how many times set-up is repeated and timed
	scale    float64
	trace    bool
	dataDir  string // parent of the disk store directories
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to their values.
type metricSet map[string]metricValue

func (m metricSet) put(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }

// recorder collects one latency sample per operation and, in a traced
// run, what the operation's root span needs.
type recorder struct {
	durs   []float64 // ns per operation
	spans  bool
	starts []int64 // UnixNano of each timed call; traced runs only
	spanNS []int64 // how long the timed call took
}

// op times one operation.
func (r *recorder) op(fn func() bool) bool {
	t := time.Now()
	ok := fn()
	r.add(t, 1)
	return ok
}

// add records n operations timed together since t as one sample of
// their mean: where one operation is too short for the clock.
func (r *recorder) add(t time.Time, n int) {
	d := time.Since(t)
	r.durs = append(r.durs, float64(d)/float64(n))
	if r.spans {
		r.starts = append(r.starts, t.UnixNano())
		r.spanNS = append(r.spanNS, int64(d))
	}
}

// child is a recorder for one of several concurrent callers.
func (r *recorder) child() *recorder { return &recorder{spans: r.spans} }

func (r *recorder) merge(c *recorder) {
	r.durs = append(r.durs, c.durs...)
	r.starts = append(r.starts, c.starts...)
	r.spanNS = append(r.spanNS, c.spanNS...)
}

// roundStat is one timed round.
type roundStat struct {
	roundResult
	wall, cpu time.Duration
	p50ns     float64
}

// runResult is everything one run measured.
type runResult struct {
	setupS    []float64 // each set-up's wall time
	rounds    []roundStat
	lat       []float64 // every latency sample of the timed phase, sorted
	peakRSSMB float64
	checks    int // post-run checks made
	badChecks int
	tr        *traceData // nil on an untraced run
}

func (r *runResult) attempted() (n int) {
	for _, rs := range r.rounds {
		n += rs.ops
	}
	return n + r.checks
}

func (r *runResult) failed() (n int) {
	for _, rs := range r.rounds {
		n += rs.failed
	}
	return n + r.badChecks
}

func (rs roundStat) opsPerS() float64    { return float64(rs.ops) / rs.wall.Seconds() }
func (rs roundStat) p50US() float64      { return rs.p50ns / 1e3 }
func (rs roundStat) cpuUSPerOp() float64 { return float64(rs.cpu.Microseconds()) / float64(rs.ops) }
func (rs roundStat) mbPerS() float64     { return float64(rs.payload) / 1e6 / rs.wall.Seconds() }

// perRound maps every round to a number.
func (r *runResult) perRound(f func(roundStat) float64) []float64 {
	vs := make([]float64, len(r.rounds))
	for i, rs := range r.rounds {
		vs[i] = f(rs)
	}
	return vs
}

// Every timing metric is the median over rounds.
func (r *runResult) opsPerS() float64    { return median(r.perRound(roundStat.opsPerS)) }
func (r *runResult) opP50US() float64    { return median(r.perRound(roundStat.p50US)) }
func (r *runResult) cpuUSPerOp() float64 { return median(r.perRound(roundStat.cpuUSPerOp)) }
func (r *runResult) mbPerS() float64     { return median(r.perRound(roundStat.mbPerS)) }

// spread is how far a per-round quantity scatters within the run.
func (r *runResult) spread(f func(roundStat) float64) float64 { return iqrShare(r.perRound(f)) }

// iqrShare is the distance between the first and the third quartile
// as a share of the median — the spread a regression driver computes
// over runs, here over rounds. Quartiles follow Python's
// statistics.quantiles(values, n=4).
func iqrShare(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / med
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// typicalLatency is the median latency of one round's operations.
// A round of several phases (meta_small) has one latency mode per
// kind of operation, and the median of that mixture jumps between
// modes when one of them shifts a little; there it is the phases'
// medians averaged by sample count, which moves smoothly with each.
func typicalLatency(durs []float64, phases []int) float64 {
	if len(phases) == 0 {
		return median(durs)
	}
	sum, n := 0.0, 0
	for _, p := range phases {
		sum += median(durs[n:n+p]) * float64(p)
		n += p
	}
	return sum / float64(n)
}

// quantile reads q from an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// setUp boots a stack, prepares the workload on it and runs the
// untimed warm-up round: everything before the first timed op.
func setUp(cfg runConfig, n int, trace bool) (workload, error) {
	dir := ""
	if usesDisk(cfg.workload) {
		dir = filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d-%d", cfg.workload, os.Getpid(), n))
	}
	st, err := bootStack(dir, trace)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg.workload, st, cfg.seed, cfg.scale)
	if err == nil {
		err = w.prepare()
	}
	if err != nil {
		tearDown(st)
		return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	if res := w.round(&recorder{}); res.failed > 0 {
		tearDown(st)
		return nil, fmt.Errorf("%s: %d of %d warm-up operations failed", cfg.workload, res.failed, res.ops)
	}
	return w, nil
}

// tearDown stops a stack and removes its store directory.
func tearDown(st *stack) {
	st.close() //nolint:errcheck // the directory goes next
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// timedPhase runs rounds for at least seconds and at least minRounds.
func timedPhase(w workload, seconds float64, minRounds int, rec *recorder, tr *traceData) []roundStat {
	var rounds []roundStat
	start := time.Now()
	for len(rounds) < minRounds || time.Since(start).Seconds() < seconds {
		from := len(rec.durs)
		cpu0 := cpuTime()
		t := time.Now()
		rr := w.round(rec)
		rs := roundStat{roundResult: rr, wall: time.Since(t), cpu: cpuTime() - cpu0}
		rs.p50ns = typicalLatency(rec.durs[from:], rr.phases)
		if tr != nil {
			tr.endRound(t, rs, rec, from)
		}
		fmt.Fprintf(os.Stderr, "round %d: %d ops in %v, %.1f op/s, p50 %.2f us, cpu %.2f us/op, %d failed\n",
			len(rounds), rs.ops, rs.wall.Round(time.Millisecond), rs.opsPerS(), rs.p50US(), rs.cpuUSPerOp(), rs.failed)
		rounds = append(rounds, rs)
	}
	return rounds
}

// run measures one workload.
func run(cfg runConfig) (*runResult, error) {
	res := &runResult{}
	baseline := 0.0
	if cfg.trace {
		// Tracing overhead needs the same workload untraced in the same
		// process: a short phase on a stack of its own, first.
		w, err := setUp(cfg, cfg.setups, false)
		if err != nil {
			return nil, err
		}
		base := runResult{rounds: timedPhase(w, cfg.seconds/4, 2, &recorder{}, nil)}
		baseline = base.opsPerS()
		tearDown(w.stack())
		// The two phases share the run's time, and setup_s is not a
		// traced-run metric, so one set-up is enough.
		cfg.seconds, cfg.setups = cfg.seconds*3/4, 1
	}
	var w workload
	for n := 0; n < cfg.setups; n++ {
		if w != nil {
			tearDown(w.stack())
		}
		t := time.Now()
		var err error
		if w, err = setUp(cfg, n, cfg.trace); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t).Seconds())
	}
	defer func() { tearDown(w.stack()) }()
	if cfg.trace {
		res.tr = newTraceData(w.stack())
		res.tr.baselineOpsPerS = baseline
	}
	rec := &recorder{spans: cfg.trace}
	res.rounds = timedPhase(w, cfg.seconds, cfg.rounds, rec, res.tr)
	sort.Float64s(rec.durs)
	res.lat = rec.durs
	res.peakRSSMB = peakRSSMB()
	if res.tr != nil {
		res.tr.finish()
	}
	res.checks, res.badChecks = w.verify()
	return res, nil
}

// cpuTime is the process's user+system CPU so far: client and server
// together, the cost an operation really has when the wire is free.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(rest, "%f", &kb) //nolint:errcheck // 0 on a malformed line
			return kb / 1024
		}
	}
	return 0
}
