package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: prins
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkBatchShip/frames-1-8         	     300	   2282801 ns/op	       438.1 writes/s
BenchmarkBatchShip/frames-64-8        	     300	     67433 ns/op	        61.78 frames/batch	     14830 writes/s
some test log line
PASS
ok  	prins	1.936s
`

func TestParse(t *testing.T) {
	var echo bytes.Buffer
	report, err := parse(strings.NewReader(sample), &echo)
	if err != nil {
		t.Fatal(err)
	}

	// Pass-through: every input line reaches the echo writer verbatim.
	if echo.String() != sample {
		t.Error("echoed output differs from input")
	}

	if got, want := report.Env["goos"], "linux"; got != want {
		t.Errorf("env goos = %q, want %q", got, want)
	}
	if got, want := report.Env["cpu"], "Intel(R) Xeon(R) Processor @ 2.70GHz"; got != want {
		t.Errorf("env cpu = %q, want %q", got, want)
	}

	if len(report.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(report.Benchmarks))
	}
	b := report.Benchmarks[1]
	if b.Name != "BenchmarkBatchShip/frames-64-8" {
		t.Errorf("name = %q", b.Name)
	}
	if b.Iterations != 300 {
		t.Errorf("iterations = %d, want 300", b.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 67433, "frames/batch": 61.78, "writes/s": 14830,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("metric %s = %v, want %v", unit, got, want)
		}
	}
}

func TestParseIgnoresMalformedLines(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkNoIterations",           // too few fields
		"BenchmarkBadCount abc 5 ns/op",   // non-numeric count
		"BenchmarkBadValue 10 five ns/op", // non-numeric value
		"NotABenchmark 10 5 ns/op",        // wrong prefix
		"BenchmarkGood 10 5 ns/op",        // valid
		"",
	}, "\n")
	report, err := parse(strings.NewReader(in), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 1 || report.Benchmarks[0].Name != "BenchmarkGood" {
		t.Errorf("benchmarks = %+v, want just BenchmarkGood", report.Benchmarks)
	}
}

func TestGuard(t *testing.T) {
	writeBaseline := func(t *testing.T, writesPerSec float64) string {
		t.Helper()
		base := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkHotpathSyncShip/group-on-8", Iterations: 100,
				Metrics: map[string]float64{"writes/s": writesPerSec, "ns/op": 1}},
			{Name: "BenchmarkOther", Iterations: 10,
				Metrics: map[string]float64{"ns/op": 5}},
		}}
		enc, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "base.json")
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fresh := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkHotpathSyncShip/group-on-8", Iterations: 100,
			Metrics: map[string]float64{"writes/s": 900}},
	}}

	// 900 vs baseline 950 is a 5.3% drop: inside a 10% budget,
	// outside a 2% budget.
	path := writeBaseline(t, 950)
	if err := guard(fresh, path, "writes/s", 10, false, &bytes.Buffer{}); err != nil {
		t.Errorf("5%% drop failed a 10%% guard: %v", err)
	}
	err := guard(fresh, path, "writes/s", 2, false, &bytes.Buffer{})
	if err == nil {
		t.Error("5% drop passed a 2% guard")
	} else if !strings.Contains(err.Error(), "BenchmarkHotpathSyncShip/group-on-8") {
		t.Errorf("guard error does not name the regressed benchmark: %v", err)
	}

	// Improvements never fail.
	if err := guard(fresh, writeBaseline(t, 100), "writes/s", 10, false, &bytes.Buffer{}); err != nil {
		t.Errorf("improvement failed the guard: %v", err)
	}

	// Nothing to compare is an error, not a silent pass.
	if err := guard(fresh, path, "no-such-metric", 10, false, &bytes.Buffer{}); err == nil {
		t.Error("guard with no shared metric passed silently")
	}
}

func TestGuardLowerIsBetter(t *testing.T) {
	writeBaseline := func(t *testing.T, wireB float64) string {
		t.Helper()
		base := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkGroupRepair", Iterations: 100,
				Metrics: map[string]float64{"wireB": wireB, "ns/op": 1}},
		}}
		enc, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "base.json")
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fresh := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkGroupRepair", Iterations: 100,
			Metrics: map[string]float64{"wireB": 1050}},
	}}

	// 1050 vs baseline 1000 is a 5% rise: inside a 10% budget, outside
	// a 2% budget — but only when the guard knows lower is better.
	path := writeBaseline(t, 1000)
	if err := guard(fresh, path, "wireB", 10, true, &bytes.Buffer{}); err != nil {
		t.Errorf("5%% rise failed a 10%% lower-is-better guard: %v", err)
	}
	err := guard(fresh, path, "wireB", 2, true, &bytes.Buffer{})
	if err == nil {
		t.Error("5% rise passed a 2% lower-is-better guard")
	} else if !strings.Contains(err.Error(), "above baseline") {
		t.Errorf("guard error does not report the rise direction: %v", err)
	}

	// A drop is an improvement under -lower and never fails.
	if err := guard(fresh, writeBaseline(t, 5000), "wireB", 10, true, &bytes.Buffer{}); err != nil {
		t.Errorf("improvement failed the lower-is-better guard: %v", err)
	}
	// Without -lower the same rise would (wrongly) read as a pass —
	// pin that the flag, not the metric name, decides direction.
	if err := guard(fresh, path, "wireB", 2, false, &bytes.Buffer{}); err != nil {
		t.Errorf("higher-is-better guard failed on a rise: %v", err)
	}
}

// TestGuardMatchesAcrossProcs: go test names a benchmark
// BenchmarkX-2 on a two-CPU host and BenchmarkX at one CPU; the guard
// must compare the two rather than report nothing shared.
func TestGuardMatchesAcrossProcs(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkGroupRepair", Metrics: map[string]float64{"wireB": 1000}},
		{Name: "BenchmarkHotpathShards/shards-8", Metrics: map[string]float64{"wireB": 1000}},
	}}
	enc, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BenchmarkGroupRepair-2", "BenchmarkHotpathShards/shards-8", "BenchmarkHotpathShards/shards-8-2"} {
		fresh := &Report{Benchmarks: []Benchmark{{Name: name, Metrics: map[string]float64{"wireB": 2000}}}}
		err := guard(fresh, path, "wireB", 10, true, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "performance regression") {
			t.Errorf("%s: guard = %v, want it compared and failed", name, err)
		}
	}
	for name, want := range map[string]string{
		"BenchmarkX-2": "BenchmarkX", "BenchmarkX": "BenchmarkX",
		"BenchmarkX/a-b": "BenchmarkX/a-b", "BenchmarkX-": "BenchmarkX-",
	} {
		if got := trimProcs(name); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", name, got, want)
		}
	}
}
