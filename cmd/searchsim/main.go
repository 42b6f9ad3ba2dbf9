// Command searchsim simulates faulty-robot search and prints either a
// single-run event timeline or a simulator-vs-closed-form table:
//
//	searchsim -m 2 -k 3 -f 1 -ray 1 -dist 7.5
//	searchsim -m 3 -k 2 -f 0 -ray 2 -dist 3 -alpha 1.9
//	searchsim -model probabilistic -m 2 -k 1 -f 0 -dist 7.5
//	searchsim -simulate -model pfaulty-halfline -m 1 -k 1 -f 0 -p 0.5
//	searchsim -simulate -model byzantine-line -m 2 -k 3 -f 1 -horizon 50
//
// The fault model resolves through the scenario registry, and the
// -simulate mode is fully registry-driven: any scenario exposing a
// SimulateJob constructor (crash, probabilistic, pfaulty-halfline,
// byzantine-line, plus anything registered later) is run over a
// log-spaced grid of target distances through the evaluation engine
// and rendered with the same table bytes boundsd serves as
// /v1/simulate?format=markdown — no per-model switch in this binary.
//
// Monte-Carlo scenarios derive their seed deterministically from
// (m, k, f, samples) (registry.DeriveSeed); -seed overrides it and
// -samples overrides the horizon-derived sample count. A clamped
// sample count is reported on stderr instead of being silently
// applied.
//
// The default (timeline) mode without -simulate is the crash model's
// single-target event replay; other scenarios point at -simulate.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/randomized"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// options carries the parsed flags.
type options struct {
	model    string
	m, k, f  int
	ray      int
	dist     float64
	alpha    float64
	sweep    bool
	simulate bool
	horizon  float64
	points   int
	p        float64
	seed     int64
	samples  int
	workers  int
	warnings io.Writer // nil = discard (tests)
}

func main() {
	var opts options
	flag.StringVar(&opts.model, "model", "crash", "fault model (a registry scenario name)")
	flag.IntVar(&opts.m, "m", 2, "number of rays (2 = the line, 1 = the half-line)")
	flag.IntVar(&opts.k, "k", 3, "number of robots")
	flag.IntVar(&opts.f, "f", 1, "number of faulty robots")
	flag.IntVar(&opts.ray, "ray", 1, "target ray (timeline mode)")
	flag.Float64Var(&opts.dist, "dist", 5, "target distance >= 1 (timeline mode)")
	flag.Float64Var(&opts.alpha, "alpha", 0, "override the strategy base (0 = optimal alpha*; timeline mode)")
	flag.BoolVar(&opts.sweep, "sweep", false, "also print the exact worst-case ratio over [1, 1e5) (timeline mode)")
	flag.BoolVar(&opts.simulate, "simulate", false, "run the scenario's simulator over a distance grid (registry-driven)")
	flag.Float64Var(&opts.horizon, "horizon", server.DefaultSimHorizon, "distance-grid upper end for -simulate")
	flag.IntVar(&opts.points, "points", server.DefaultSimPoints, "distance-grid size for -simulate")
	flag.Float64Var(&opts.p, "p", 0, "per-visit fault probability for pfaulty-halfline (0 = scenario default)")
	flag.Int64Var(&opts.seed, "seed", 0, "Monte-Carlo seed override (0 = derive from m, k, f and samples)")
	flag.IntVar(&opts.samples, "samples", 0, "Monte-Carlo sample-count override (0 = derive from the horizon)")
	flag.IntVar(&opts.workers, "workers", 0, "worker-pool size for -simulate (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "compute budget (0 = none)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts.warnings = os.Stderr
	if err := run(ctx, os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "searchsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, opts options) error {
	sc, err := registry.Get(opts.model)
	if err != nil {
		return err
	}
	if opts.simulate {
		return runSimulate(ctx, w, sc, opts)
	}
	switch {
	case sc.Name == "crash":
		return runCrash(ctx, w, opts)
	case sc.Name == "probabilistic":
		return runProbabilistic(ctx, w, sc, opts)
	case sc.Simulatable:
		return fmt.Errorf("scenario %q has no timeline mode; use -simulate for its distance-grid table", sc.Name)
	default:
		return fmt.Errorf("scenario %q has no simulator (only bound transfer is known); use -model crash to simulate the embedded silent behavior", sc.Name)
	}
}

// runSimulate is the registry-driven mode: the scenario's SimulateJob
// runs over a log-spaced distance grid through the engine, and the
// table printed here is byte-identical to the boundsd answer for
// /v1/simulate?format=markdown with the same parameters.
func runSimulate(ctx context.Context, w io.Writer, sc registry.Scenario, opts options) error {
	if sc.SimulateJob == nil {
		return fmt.Errorf("scenario %q has no simulator (simulatable scenarios: %v)", sc.Name, registry.SimulatableNames())
	}
	req := registry.Request{
		M: opts.m, K: opts.k, F: opts.f,
		Horizon: opts.horizon, P: opts.p,
		Seed: opts.seed, Samples: opts.samples,
	}
	table, err := server.ComputeSimulate(ctx, engine.New(opts.workers), sc, req, opts.points)
	if table == nil || len(table.Rows) == 0 {
		return err
	}
	for _, row := range table.Rows {
		if row.Clamped && opts.warnings != nil {
			fmt.Fprintf(opts.warnings, "searchsim: horizon-derived sample count clamped; running %d samples per row (pass -samples to choose)\n", row.Samples)
			break
		}
	}
	if _, werr := io.WriteString(w, table.Markdown()); werr != nil {
		return werr
	}
	// A cancelled run delivered only a prefix of the grid; say so and
	// fail instead of passing a truncated table off as complete. Rows
	// that failed individually stay in the table's errors section and
	// also fail the run (err is the lowest-index row failure).
	if len(table.Rows) < opts.points {
		cause := err
		if cause == nil {
			cause = ctx.Err()
		}
		return fmt.Errorf("truncated after %d/%d rows: %w", len(table.Rows), opts.points, cause)
	}
	return err
}

// runProbabilistic samples the randomized zigzag at the target distance
// and compares the Monte-Carlo mean ratio with the scenario's closed
// form (which is distance-independent). The trial job resolves through
// the registry's SimulateJob constructor, so the seed derivation, the
// sample-range validation, and the clamp surfacing are exactly the
// /v1/simulate semantics.
func runProbabilistic(ctx context.Context, w io.Writer, sc registry.Scenario, opts options) error {
	if opts.dist < 1 {
		return fmt.Errorf("target distance %g < 1", opts.dist)
	}
	base, closed, err := randomized.OptimalBase()
	if err != nil {
		return err
	}
	req := registry.Request{
		M: opts.m, K: opts.k, F: opts.f, Dist: opts.dist,
		Seed: opts.seed, Samples: opts.samples,
		// The historical timeline-mode default of 4000 samples, via the
		// horizon derivation when -samples is unset.
		Horizon: 4000,
	}
	job, err := sc.SimulateJob(ctx, req)
	if err != nil {
		return err
	}
	res, err := engine.New(1).Run(ctx, job)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "strategy: randomized zigzag, base b* = %.6g\n", base)
	fmt.Fprintf(w, "expected ratio (closed form): %.9g\n", closed)
	fmt.Fprintf(w, "Monte-Carlo mean ratio at dist %g (%d samples, seed %d): %.6g\n", opts.dist, res.Samples, res.Seed, res.Value)
	fmt.Fprintf(w, "deterministic floor (cow path): %.6g\n", randomized.DeterministicFloor)
	return nil
}

func runCrash(ctx context.Context, w io.Writer, opts options) error {
	var (
		s   *strategy.CyclicExponential
		err error
	)
	if opts.alpha > 0 {
		s, err = strategy.NewCyclicExponentialAlpha(opts.m, opts.k, opts.f, opts.alpha)
	} else {
		s, err = strategy.NewCyclicExponential(opts.m, opts.k, opts.f)
	}
	if err != nil {
		return err
	}
	lambda0, err := bounds.AMKF(opts.m, opts.k, opts.f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "strategy: %s\n", s.Name())
	fmt.Fprintf(w, "lambda0 (optimal ratio): %.9g\n\n", lambda0)

	res, err := sim.Run(sim.Config{
		Strategy: s,
		Faults:   opts.f,
		Target:   trajectory.Point{Ray: opts.ray, Dist: opts.dist},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "target: %v\n", res.Target)
	fmt.Fprintf(w, "adversary crashes robots: %v\n", res.FaultySet)
	fmt.Fprintln(w, "timeline:")
	for _, ev := range res.Timeline {
		tag := ""
		if ev.Faulty {
			tag = " (crashed: stays silent)"
		}
		fmt.Fprintf(w, "  t=%-12.6g %-7s robot %d%s\n", ev.Time, ev.Kind, ev.Robot, tag)
	}
	fmt.Fprintf(w, "detection time: %.6g   ratio: %.9g  (lambda0 %.9g)\n",
		res.DetectionTime, res.Ratio, lambda0)

	if opts.sweep {
		ev, err := adversary.ExactRatio(ctx, s, opts.f, 1e5)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nexact worst-case over [1, 1e5): ratio %.9g at ray %d, x -> %.6g+\n",
			ev.WorstRatio, ev.WorstRay, ev.WorstX)
	}
	return nil
}
