// Command perfbench is the repository's end-to-end benchmark. It runs
// the paper's deployment in one process — closed-loop clients mount
// the primary through its iSCSI front end (prins.Dial → Primary.Serve),
// the primary's engine ships over an emulated WAN link (a TCP proxy
// shaped by internal/wan) to Replica.Serve — and reports what a user
// sees (untraced runs) or what each layer did (traced runs, --trace 1).
//
// Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload tpcc-wan --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//
// The last line of standard output is a JSON summary; the lines before
// it list every metric with its unit and sample count. The exit code
// is non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir, under the checkout's build directory, receives span files
// and each run's scratch files.
var outDir = filepath.Join(".bench_build", "perfbench")

// setupReps is how many times a run brings the system up; setup_s is
// the median. A deployment comes up in a few milliseconds, which the
// shared host's noise moves by a fifth or more, so the median needs many.
const setupReps = 41

// warmup is how long the load runs untimed before a run measures it.
const warmup = 2 * time.Second

// maxPairs bounds the (old, new) pairs a traced run keeps for the
// kernel replay.
const maxPairs = 1024

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or \"all\"")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		traced  = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if *name == "all" {
		os.Exit(runAll(*seed, dur))
	}
	res, err := runOne(*name, *seed, dur, *traced == 1)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	samples    int64 // how many observations it summarizes
}

// result is a run's outcome.
type result struct {
	Workload  string
	Correct   bool
	Attempted int64
	Failed    int64
	Failures  []string
	Metrics   []metric // the JSON summary
	Extra     []metric // printed, not in the summary
}

func (r *result) print(f *os.File) {
	for _, fail := range r.Failures {
		fmt.Fprintf(f, "%s: CHECK FAILED: %s\n", r.Workload, fail)
	}
	for _, set := range [][]metric{r.Metrics, r.Extra} {
		for _, m := range set {
			fmt.Fprintf(f, "%s: %-34s %16.4f %-6s n=%d\n", r.Workload, m.name, m.value, m.unit, m.samples)
		}
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]jm{}}
	for _, m := range r.Metrics {
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(f, string(b))
}

// runOne makes the workload's inputs, brings the system up setupReps
// times, runs the timed load and checks the outputs. A traced run
// first runs half its time untraced, then half traced, so the two
// rates give the tracing overhead.
func runOne(name string, seed int64, dur time.Duration, traced bool) (*result, error) {
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	genStart := time.Now()
	w, err := newWorkload(name, seed, tmp)
	if err != nil {
		return nil, err
	}
	genS := time.Since(genStart).Seconds()
	resetPeakRSS()

	clk := newClock()
	var d *deployment
	defer func() {
		if d == nil {
			return
		}
		if err := d.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: teardown:", err)
		}
	}()
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
			d = nil
			runtime.GC()
		}
		cfg := w.deployConfig()
		t0 := time.Now()
		if d, err = deploy(cfg, clk); err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Warm up: run the load untimed until the heap and the sessions
	// have settled, then collect the garbage so far.
	if _, err := w.phase(d, warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()

	res := &result{Workload: name}
	var runErr error
	var logU, logT *phaseLog
	var led *ledger
	if !traced {
		logU, runErr = measure(w, d, dur)
	} else {
		logU, runErr = measure(w, d, dur/2)
		led, logT = newLedger(maxPairs), &phaseLog{}
		if runErr == nil {
			d.led.Store(led)
			logT, runErr = measure(w, d, dur/2)
			d.led.Store(nil)
		}
	}
	if runErr != nil {
		res.Failures = append(res.Failures, "load: "+runErr.Error())
	}
	res.Failures = append(res.Failures, w.check(d)...)
	for _, l := range []*phaseLog{logU, logT} {
		if l != nil {
			res.Attempted += l.attempted
			res.Failed += l.failed
		}
	}
	if res.Failed > 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("%d of %d client ops failed", res.Failed, res.Attempted))
	}

	if !traced {
		res.Metrics, res.Extra = endToEnd(logU, setups, genS)
	} else {
		ks, err := replayKernels(led.pairs)
		if err != nil {
			res.Failures = append(res.Failures, "kernel replay: "+err.Error())
		}
		if name == "sparse-lan" && (ks.nonzeroFrac < 0.05 || ks.nonzeroFrac > 0.20) {
			res.Failures = append(res.Failures, fmt.Sprintf("parity.nonzero_frac %.4f outside the 5-20%% band", ks.nonzeroFrac))
		}
		res.Metrics = perLayer(d, led, logU, logT, ks)
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.tsv", name, seed))
		if err := led.writeOut(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Failures = append(res.Failures, "no client op was attempted")
	}
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// measure runs one phase and snapshots the engine and link around it.
func measure(w workload, d *deployment, dur time.Duration) (*phaseLog, error) {
	e0 := d.stats()
	mark := d.link.turnMark()
	log, err := w.phase(d, dur)
	if log == nil {
		log = &phaseLog{}
	}
	log.engine0, log.engine1 = e0, d.stats()
	log.turnMark0, log.turnMark1 = mark, d.link.turnMark()
	return log, err
}

// runAll runs every workload untraced and traced and prints everything,
// returning the process exit code.
func runAll(seed int64, dur time.Duration) int {
	code := 0
	for _, name := range workloadNames {
		var rates [2]float64
		for i, traced := range []bool{false, true} {
			res, err := runOne(name, seed, dur, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
				code = 1
				continue
			}
			res.print(os.Stdout)
			if !res.Correct {
				code = 1
			}
			for _, m := range res.Metrics {
				if m.name == "writes_per_s" || m.name == "trace.writes_per_s" {
					rates[i] = m.value
				}
			}
		}
		fmt.Printf("%s: tracing overhead: untraced %.1f writes/s, traced %.1f writes/s\n", name, rates[0], rates[1])
	}
	return code
}

// median of v, 0 when it is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
