// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON report. Input lines pass through to stdout
// unchanged, so it can sit at the end of a pipe without hiding the
// human-readable results:
//
//	go test -bench=BatchShip . | go run ./cmd/benchjson -out BENCH_batch.json
//
// The report captures the environment header (goos, goarch, pkg, cpu)
// and, per benchmark, the iteration count and every value/unit metric
// pair — both the standard ns/op style metrics and the custom ones
// emitted with b.ReportMetric (writes/s, frames/batch, ratio, ...).
//
// With -baseline it doubles as a regression guard: after parsing, the
// fresh run is compared against a committed report and the process
// exits nonzero if any shared benchmark's named metric (higher =
// better, e.g. writes/s) fell more than -max-regress percent below the
// baseline:
//
//	go test -bench=Hotpath . | go run ./cmd/benchjson \
//	    -baseline BENCH_hotpath.json -metric writes/s -max-regress 10
//
// For lower-is-better metrics (wire bytes, ns/op), -lower flips the
// comparison: the guard fails if the fresh value rose more than
// -max-regress percent above the baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one result line of `go test -bench` output.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole run: the environment header lines plus every
// benchmark result, in input order.
type Report struct {
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "file to write the JSON report to (empty = stdout only)")
	baseline := flag.String("baseline", "", "committed report to compare against (enables guard mode)")
	metric := flag.String("metric", "writes/s", "metric the guard compares (higher-is-better unless -lower)")
	maxRegress := flag.Float64("max-regress", 10, "max tolerated regression from baseline, percent")
	lower := flag.Bool("lower", false, "treat the metric as lower-is-better (guard against rises)")
	flag.Parse()

	report, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out != "" || *baseline == "" {
		enc, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		enc = append(enc, '\n')
		if *out == "" {
			if _, err := os.Stdout.Write(enc); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
		} else {
			if err := os.WriteFile(*out, enc, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
		}
	}
	if *baseline != "" {
		if err := guard(report, *baseline, *metric, *maxRegress, *lower, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// guard compares the fresh report against the baseline file: every
// benchmark present in both with the named metric must not have
// regressed more than maxRegress percent from its committed value —
// fallen below it for higher-is-better metrics, risen above it when
// lower is set (wire bytes, latencies).
func guard(fresh *Report, baselinePath, metric string, maxRegress float64, lower bool, w io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	baseBy := map[string]float64{}
	for _, b := range base.Benchmarks {
		if v, ok := b.Metrics[metric]; ok && v > 0 {
			baseBy[b.Name] = v
		}
	}
	compared := 0
	var failures []string
	for _, b := range fresh.Benchmarks {
		got, ok := b.Metrics[metric]
		if !ok {
			continue
		}
		want, ok := baseBy[b.Name]
		if !ok {
			want, ok = baseBy[trimProcs(b.Name)]
		}
		if !ok {
			continue
		}
		compared++
		dropPct := (want - got) / want * 100
		direction := "below"
		if lower {
			dropPct = -dropPct
			direction = "above"
		}
		fmt.Fprintf(w, "benchjson: guard %-40s %s %12.1f baseline %12.1f (%+.1f%%)\n",
			b.Name, metric, got, want, -dropPct)
		if dropPct > maxRegress {
			failures = append(failures,
				fmt.Sprintf("%s: %s %.1f is %.1f%% %s baseline %.1f (max %.0f%%)",
					b.Name, metric, got, dropPct, direction, want, maxRegress))
		}
	}
	if compared == 0 {
		return fmt.Errorf("guard compared no benchmarks: no shared %q metric with %s", metric, baselinePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("performance regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// trimProcs drops the -GOMAXPROCS suffix `go test` appends to a
// benchmark's name whenever GOMAXPROCS is not 1, so a run on a
// multi-core host still matches a baseline recorded at one CPU. The
// guard tries the exact name first: a sub-benchmark such as shards-8
// run at one CPU keeps its own name.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parse reads `go test -bench` output from r, echoing every line to
// echo, and returns the structured report. Unrecognized lines (PASS,
// ok, test log output) are passed through and otherwise ignored.
func parse(r io.Reader, echo io.Writer) (*Report, error) {
	report := &Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if env, ok := parseEnvLine(line); ok {
			if report.Env == nil {
				report.Env = map[string]string{}
			}
			for k, v := range env {
				report.Env[k] = v
			}
			continue
		}
		if b, ok := parseBenchLine(line); ok {
			report.Benchmarks = append(report.Benchmarks, b)
		}
	}
	return report, sc.Err()
}

// envKeys are the header lines `go test -bench` prints before results.
var envKeys = map[string]bool{"goos": true, "goarch": true, "pkg": true, "cpu": true}

func parseEnvLine(line string) (map[string]string, bool) {
	key, val, ok := strings.Cut(line, ": ")
	if !ok || !envKeys[key] {
		return nil, false
	}
	return map[string]string{key: strings.TrimSpace(val)}, true
}

// parseBenchLine parses one result line:
//
//	BenchmarkBatchShip/frames-64-8   300   67433 ns/op   61.78 frames/batch
//
// i.e. name, iteration count, then value/unit pairs.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
