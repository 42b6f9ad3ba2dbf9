// Command perfbench is the repository's end-to-end benchmark. It
// launches cmd/boundsd as a process of its own, drives one named
// workload at it from this single process, checks the answers, and
// prints every metric by name and unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics.
//
//	bash perfbench/run.sh --workload serve-hot --seed 7 --seconds 10 --trace 0
//
// With --trace 1 the workload is first driven untraced (for its
// /metrics counter deltas), then its generated inputs are replayed
// in-process from the outside in — loopback client, Server.ServeHTTP,
// the registry job constructors and the engine, then the adversary,
// solver, strategy-program and simulator entry points — and the run
// reports per-layer metrics instead of end-to-end ones. README.md lists
// the workloads, the metrics, and which end-to-end metric each layer
// metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// An untraced run times boundsd's set-up in setupGroups groups of
// launches spaced setupGap apart, half before the measured window and
// half after it; setup_s is the median of the timed launches. The box's
// speed moves from one second to the next, so launches spread over the
// run follow the run rather than one moment of it. The first launch of
// a group comes after an idle gap and runs slow, so it is not timed.
const (
	setupGroups   = 12
	groupLaunches = 4 // timed launches per group, after the untimed first
	setupGap      = 500 * time.Millisecond
)

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	boundsd  string
	out      string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to drive: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from a traced in-process replay")
	flag.StringVar(&o.boundsd, "boundsd", "", "path of the boundsd binary to launch")
	flag.StringVar(&o.out, "out", "", "directory the traced run writes its spans to (empty = not written)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets boundsd up, drives the workload, checks the answers and
// computes the requested metric set. Every boundsd it starts has exited
// by the time it returns.
func run(ctx context.Context, o options) (*result, error) {
	w := workloadNamed(o.workload)
	switch {
	case w == nil:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	case o.seconds < 1:
		return nil, fmt.Errorf("--seconds %d must be at least 1", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return nil, fmt.Errorf("--trace %d must be 0 or 1", o.trace)
	case o.boundsd == "":
		return nil, errors.New("--boundsd is required (run.sh builds boundsd and passes it)")
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	in := newInputs(w, o.seed)
	var (
		d      *daemon
		setups []float64
		err    error
	)
	if o.trace == 1 {
		d, _, err = launch(ctx, o.boundsd, w, in)
	} else {
		d, err = setUp(ctx, o, w, in, setupGroups/2, &setups)
	}
	if err != nil {
		return nil, err
	}
	m, err := drive(ctx, w, in, d, o)
	// A window the open loop's generator fell behind on measured the
	// generator, not boundsd: a stall of the shared box does that. It is
	// discarded and driven again, on a fresh boundsd so that the cache
	// starts from the same state.
	for tries := 1; err == nil && !m.valid(w) && tries < maxWindows; tries++ {
		fmt.Printf("  window %d discarded: generator lag p99 %.3g ms exceeds %.0f ms\n", tries, m.lagP99, maxLagMs)
		d.stop()
		if d, _, err = launch(ctx, o.boundsd, w, in); err != nil {
			return nil, err
		}
		m, err = drive(ctx, w, in, d, o)
	}
	d.stop()
	if err != nil {
		return nil, err
	}
	if !m.valid(w) {
		m.checks = append(m.checks, fmt.Sprintf("generator lag p99 %.2f ms exceeds %.0f ms in each of %d windows: the run is invalid",
			m.lagP99, maxLagMs, maxWindows))
	}
	m.report(os.Stdout, w, o)
	if o.trace == 0 {
		before := len(setups)
		last, err := setUp(ctx, o, w, in, setupGroups-setupGroups/2, &setups)
		if err != nil {
			return nil, err
		}
		last.stop()
		fmt.Printf("  set-up median %.4g ms over %d launches before the window, %.4g ms over %d after it\n",
			median(setups[:before])*1000, before, median(setups[before:])*1000, len(setups)-before)
	}
	res := &result{Attempted: m.col.attempted, Failed: m.col.failed + int64(len(m.checks))}
	problems := append(m.col.problems, m.checks...)
	if o.trace == 0 {
		res.Metrics = endToEnd(m, median(setups))
	} else {
		lm, replayProblems, err := traceReplay(ctx, w, in, m, o)
		if err != nil {
			return nil, err
		}
		res.Failed += int64(len(replayProblems))
		problems = append(problems, replayProblems...)
		res.Metrics = lm
	}
	res.Correct = res.Failed == 0
	for _, p := range problems {
		fmt.Println("FAIL", p)
	}
	printMetrics(os.Stdout, res.Metrics)
	return res, nil
}

// setUp launches boundsd in groups of 1+groupLaunches, setupGap apart,
// appends the set-up time of every launch but each group's first to
// secs, and returns the last launch, still running. On an error no
// boundsd it started is left running.
func setUp(ctx context.Context, o options, w *workload, in *inputs, groups int, secs *[]float64) (*daemon, error) {
	var d *daemon
	for g := 0; g < groups; g++ {
		if d != nil {
			d.stop()
			select {
			case <-time.After(setupGap):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		for i := 0; i <= groupLaunches; i++ {
			if i > 0 {
				d.stop()
			}
			var (
				s   float64
				err error
			)
			if d, s, err = launch(ctx, o.boundsd, w, in); err != nil {
				return nil, err
			}
			if i > 0 {
				*secs = append(*secs, s)
			}
		}
	}
	return d, nil
}
