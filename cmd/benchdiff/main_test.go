package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkE01Theorem1Table-8   	     100	   1200000 ns/op	        5.233 worst_ratio
BenchmarkE01Theorem1Table-8   	     100	   1000000 ns/op	        5.233 worst_ratio
BenchmarkE01Theorem1Table-8   	     100	   1100000 ns/op	        5.233 worst_ratio
BenchmarkAblationCacheHit-8   	     100	       500 ns/op
BenchmarkAblationCacheHit-8   	     100	       700 ns/op
PASS
ok  	repro	12.3s
`

func TestParseMediansAndStripsSuffix(t *testing.T) {
	sum, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(sum.Benchmarks), sum.Benchmarks)
	}
	e01, ok := sum.Benchmarks["BenchmarkE01Theorem1Table"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if e01.Median != 1100000 {
		t.Errorf("odd-count median = %g, want 1100000", e01.Median)
	}
	hit := sum.Benchmarks["BenchmarkAblationCacheHit"]
	if hit.Median != 600 {
		t.Errorf("even-count median = %g, want 600", hit.Median)
	}
}

// sampleBenchmem is -benchmem output whose benchmark reports a custom
// metric before the B/op and allocs/op columns.
const sampleBenchmem = `BenchmarkExactRatioSweepCells/h=1e+06-8   	     200	   1761517 ns/op	       186.1 breakpoints/cell	      48 B/op	       3 allocs/op
BenchmarkExactRatioSweepCells/h=1e+06-8   	     200	   1750118 ns/op	       186.1 breakpoints/cell	      16 B/op	       1 allocs/op
BenchmarkExactRatioSweepCells/h=1e+06-8   	     200	   2007198 ns/op	       186.1 breakpoints/cell	      32 B/op	       2 allocs/op
BenchmarkAblationCacheHit-8   	     100	       500 ns/op
`

func TestParseBenchmemMedians(t *testing.T) {
	sum, err := Parse(strings.NewReader(sampleBenchmem))
	if err != nil {
		t.Fatal(err)
	}
	b := sum.Benchmarks["BenchmarkExactRatioSweepCells/h=1e+06"]
	if b == nil {
		t.Fatalf("benchmark with a custom metric not parsed: %+v", sum.Benchmarks)
	}
	if b.Median != 1761517 {
		t.Errorf("ns/op median = %g, want 1761517", b.Median)
	}
	if b.BytesMedian == nil || *b.BytesMedian != 32 {
		t.Errorf("B/op median = %v (samples %v), want 32", b.BytesMedian, b.BytesPerOp)
	}
	if b.AllocsMedian == nil || *b.AllocsMedian != 2 {
		t.Errorf("allocs/op median = %v (samples %v), want 2", b.AllocsMedian, b.AllocsPerOp)
	}
	if hit := sum.Benchmarks["BenchmarkAblationCacheHit"]; hit.BytesMedian != nil || hit.AllocsMedian != nil {
		t.Errorf("a line without -benchmem columns got memory medians %v, %v", hit.BytesMedian, hit.AllocsMedian)
	}

	// The comparison prints the memory medians and still gates on
	// ns/op alone: against a baseline run without -benchmem it passes.
	base := mkSummary(map[string]float64{"BenchmarkExactRatioSweepCells/h=1e+06": 1e6, "BenchmarkAblationCacheHit": 500})
	report := Compare(base, sum, 4.0)
	if !report.OK() {
		t.Errorf("memory columns failed the gate:\n%s", report.Text(4.0))
	}
	if text := report.Text(4.0); !strings.Contains(text, "(1.76x)  - -> 32 B/op  - -> 2 allocs/op") {
		t.Errorf("report does not show the memory medians:\n%s", text)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	sum, err := Parse(strings.NewReader("no benchmarks here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from noise", len(sum.Benchmarks))
	}
}

func mkSummary(entries map[string]float64) *Summary {
	sum := &Summary{Benchmarks: make(map[string]*Bench)}
	for name, med := range entries {
		sum.Benchmarks[name] = &Bench{NsPerOp: []float64{med}, Median: med}
	}
	return sum
}

func TestCompareVerdicts(t *testing.T) {
	base := mkSummary(map[string]float64{"A": 100, "B": 100, "C": 100})
	cur := mkSummary(map[string]float64{"A": 150, "B": 300, "D": 50})
	report := Compare(base, cur, 2.0)
	verdicts := map[string]string{}
	for _, d := range report.Deltas {
		verdicts[d.Name] = d.Verdict
	}
	want := map[string]string{"A": "ok", "B": "regression", "C": "missing", "D": "new"}
	for name, v := range want {
		if verdicts[name] != v {
			t.Errorf("verdict[%s] = %q, want %q", name, verdicts[name], v)
		}
	}
	if report.OK() {
		t.Error("report with regression+missing must not pass")
	}
	text := report.Text(2.0)
	for _, wantLine := range []string{"REGRESSION", "MISSING", "new", "FAIL: 2"} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("report text missing %q:\n%s", wantLine, text)
		}
	}
}

func TestComparePassWithinTolerance(t *testing.T) {
	base := mkSummary(map[string]float64{"A": 100})
	cur := mkSummary(map[string]float64{"A": 199})
	report := Compare(base, cur, 2.0)
	if !report.OK() {
		t.Errorf("1.99x within 2.0x tolerance must pass: %s", report.Text(2.0))
	}
	if !strings.Contains(report.Text(2.0), "PASS") {
		t.Error("passing report must say PASS")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

func TestWriteAndCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "out.json")
	if err := os.WriteFile(in, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runWrite(out, in); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	ok, err := runCompare(&sb, out, out, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("self-comparison must pass:\n%s", sb.String())
	}
	if _, err := runCompare(&sb, out, out, 0.5); err == nil {
		t.Error("tolerance <= 1 must be rejected")
	}
}
