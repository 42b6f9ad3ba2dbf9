// Command benchdiff turns `go test -bench` text output into a stable
// JSON summary and compares two summaries with a regression tolerance.
// It is the benchmark gate of the CI pipeline:
//
//	go test -run=NONE -bench=. -benchtime=100x -count=5 -benchmem . | tee bench.txt
//	benchdiff -write BENCH_ci.json -in bench.txt
//	benchdiff -baseline BENCH_baseline.json -current BENCH_ci.json -tolerance 2.0
//
// Each benchmark's repeated ns/op samples (from -count=N) collapse to
// their median, which is robust to scheduler noise; the compare step
// fails (exit 1) when a benchmark's current median exceeds
// tolerance * baseline median, or when a baseline benchmark vanished.
// New benchmarks are reported but do not fail the gate — they simply
// belong in the next baseline refresh. When the run had -benchmem, the
// B/op and allocs/op samples collapse to medians the same way and the
// comparison prints them beside ns/op; they never fail the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Summary is the serialized benchmark state.
type Summary struct {
	Benchmarks map[string]*Bench `json:"benchmarks"`
}

// Bench is one benchmark's samples across -count repetitions. The
// memory fields are set only for runs with -benchmem.
type Bench struct {
	NsPerOp      []float64 `json:"ns_per_op"`
	Median       float64   `json:"median"`
	BytesPerOp   []float64 `json:"bytes_per_op,omitempty"`
	BytesMedian  *float64  `json:"bytes_median,omitempty"`
	AllocsPerOp  []float64 `json:"allocs_per_op,omitempty"`
	AllocsMedian *float64  `json:"allocs_median,omitempty"`
}

func main() {
	var (
		write     = flag.String("write", "", "parse benchmark text (stdin or -in) and write a JSON summary here")
		in        = flag.String("in", "", "benchmark text input for -write (default stdin)")
		baseline  = flag.String("baseline", "", "baseline JSON summary for comparison")
		current   = flag.String("current", "", "current JSON summary for comparison")
		tolerance = flag.Float64("tolerance", 2.0, "fail when current median > tolerance * baseline median")
	)
	flag.Parse()
	switch {
	case *write != "":
		if err := runWrite(*write, *in); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
	case *baseline != "" && *current != "":
		ok, err := runCompare(os.Stdout, *baseline, *current, *tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: benchdiff -write out.json [-in bench.txt] | benchdiff -baseline a.json -current b.json [-tolerance 2.0]")
		os.Exit(2)
	}
}

func runWrite(out, in string) error {
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sum, err := Parse(r)
	if err != nil {
		return err
	}
	if len(sum.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

func runCompare(w io.Writer, baselinePath, currentPath string, tolerance float64) (bool, error) {
	if tolerance <= 1 {
		return false, fmt.Errorf("tolerance %g must be > 1", tolerance)
	}
	base, err := load(baselinePath)
	if err != nil {
		return false, err
	}
	cur, err := load(currentPath)
	if err != nil {
		return false, err
	}
	report := Compare(base, cur, tolerance)
	fmt.Fprint(w, report.Text(tolerance))
	return report.OK(), nil
}

func load(path string) (*Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sum, nil
}

// benchLine matches `BenchmarkName-8   100   12345 ns/op   ...`; the
// -N GOMAXPROCS suffix is stripped so summaries compare across
// machines with different core counts.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+([0-9.eE+]+) ns/op`)

// bytesField and allocsField match the -benchmem columns, which follow
// ns/op and any custom metrics the benchmark reports.
var (
	bytesField  = regexp.MustCompile(`\s([0-9.eE+]+) B/op\b`)
	allocsField = regexp.MustCompile(`\s([0-9.eE+]+) allocs/op\b`)
)

// Parse reads `go test -bench` output into a Summary, collapsing the
// -count repetitions of each benchmark into medians.
func Parse(r io.Reader) (*Summary, error) {
	sum := &Summary{Benchmarks: make(map[string]*Bench)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		match := benchLine.FindStringSubmatch(sc.Text())
		if match == nil {
			continue
		}
		ns, err := strconv.ParseFloat(match[2], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		b := sum.Benchmarks[match[1]]
		if b == nil {
			b = &Bench{}
			sum.Benchmarks[match[1]] = b
		}
		b.NsPerOp = append(b.NsPerOp, ns)
		if b.BytesPerOp, err = appendField(b.BytesPerOp, bytesField, sc.Text()); err != nil {
			return nil, err
		}
		if b.AllocsPerOp, err = appendField(b.AllocsPerOp, allocsField, sc.Text()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, b := range sum.Benchmarks {
		b.Median = median(b.NsPerOp)
		b.BytesMedian = optMedian(b.BytesPerOp)
		b.AllocsMedian = optMedian(b.AllocsPerOp)
	}
	return sum, nil
}

// appendField appends to xs the value of field in line, if it has one.
func appendField(xs []float64, field *regexp.Regexp, line string) ([]float64, error) {
	match := field.FindStringSubmatch(line)
	if match == nil {
		return xs, nil
	}
	v, err := strconv.ParseFloat(match[1], 64)
	if err != nil {
		return nil, fmt.Errorf("line %q: %w", line, err)
	}
	return append(xs, v), nil
}

// optMedian is median for a field that may never have been measured:
// nil without samples.
func optMedian(xs []float64) *float64 {
	if len(xs) == 0 {
		return nil
	}
	m := median(xs)
	return &m
}

// median returns the middle sample (mean of the middle two for even
// counts); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Delta is one benchmark's baseline-vs-current comparison. The memory
// medians are nil where that side was run without -benchmem.
type Delta struct {
	Name    string
	Base    float64
	Current float64
	Ratio   float64
	Verdict string // "ok", "regression", "missing", "new"

	BaseBytes, CurrentBytes   *float64
	BaseAllocs, CurrentAllocs *float64
}

// Report is the full comparison.
type Report struct {
	Deltas []Delta
}

// Compare evaluates current against base at the given tolerance.
func Compare(base, cur *Summary, tolerance float64) *Report {
	report := &Report{}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			report.Deltas = append(report.Deltas, Delta{Name: name, Base: b.Median, Verdict: "missing"})
			continue
		}
		d := Delta{
			Name: name, Base: b.Median, Current: c.Median, Verdict: "ok",
			BaseBytes: b.BytesMedian, CurrentBytes: c.BytesMedian,
			BaseAllocs: b.AllocsMedian, CurrentAllocs: c.AllocsMedian,
		}
		if b.Median > 0 {
			d.Ratio = c.Median / b.Median
			if d.Ratio > tolerance {
				d.Verdict = "regression"
			}
		}
		report.Deltas = append(report.Deltas, d)
	}
	extra := make([]string, 0)
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		c := cur.Benchmarks[name]
		report.Deltas = append(report.Deltas, Delta{
			Name: name, Current: c.Median, Verdict: "new",
			CurrentBytes: c.BytesMedian, CurrentAllocs: c.AllocsMedian,
		})
	}
	return report
}

// OK reports whether the gate passes (no regressions, nothing missing).
func (r *Report) OK() bool {
	for _, d := range r.Deltas {
		if d.Verdict == "regression" || d.Verdict == "missing" {
			return false
		}
	}
	return true
}

// Text renders the report for CI logs.
func (r *Report) Text(tolerance float64) string {
	out := fmt.Sprintf("benchmark comparison (tolerance %gx on median ns/op)\n", tolerance)
	bad := 0
	for _, d := range r.Deltas {
		switch d.Verdict {
		case "ok":
			out += fmt.Sprintf("  ok          %-40s %12.0f -> %12.0f ns/op (%.2fx)%s\n", d.Name, d.Base, d.Current, d.Ratio, d.memText())
		case "regression":
			bad++
			out += fmt.Sprintf("  REGRESSION  %-40s %12.0f -> %12.0f ns/op (%.2fx > %gx)%s\n", d.Name, d.Base, d.Current, d.Ratio, tolerance, d.memText())
		case "missing":
			bad++
			out += fmt.Sprintf("  MISSING     %-40s (in baseline at %.0f ns/op, absent from current run)\n", d.Name, d.Base)
		case "new":
			out += fmt.Sprintf("  new         %-40s %12.0f ns/op (not in baseline)%s\n", d.Name, d.Current, d.memText())
		}
	}
	if bad > 0 {
		out += fmt.Sprintf("FAIL: %d benchmark(s) regressed or went missing\n", bad)
	} else {
		out += "PASS\n"
	}
	return out
}

// memText renders the delta's B/op and allocs/op medians, base -> current,
// with "-" for a side run without -benchmem; empty when neither side
// has them.
func (d Delta) memText() string {
	if d.CurrentBytes == nil && d.BaseBytes == nil && d.CurrentAllocs == nil && d.BaseAllocs == nil {
		return ""
	}
	v := func(p *float64) string {
		if p == nil {
			return "-"
		}
		return strconv.FormatFloat(*p, 'f', -1, 64)
	}
	return fmt.Sprintf("  %s -> %s B/op  %s -> %s allocs/op", v(d.BaseBytes), v(d.CurrentBytes), v(d.BaseAllocs), v(d.CurrentAllocs))
}
