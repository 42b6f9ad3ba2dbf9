// Command experiments regenerates every experiment (E1–E12) of the
// reproduction of Kupavskii–Welzl (PODC 2018), printing one Markdown
// table or series per experiment. See DESIGN.md for the experiment index
// and EXPERIMENTS.md for the recorded paper-vs-measured comparison.
//
// The expensive adversarial evaluations fan out over the worker pool of
// internal/engine; results merge in input order, so the output is
// byte-identical for every -workers setting. The sweep-backed
// experiments (E1, E4) consume the engine's result stream, so a live
// progress meter (cells done, cells/sec, ETA) ticks on stderr while the
// tables build. Ctrl-C (or -timeout) cancels the engine cooperatively:
// in-flight cells stop at their next check and the run exits cleanly.
//
//	experiments               run everything
//	experiments -only 4       run a single experiment id
//	experiments -workers 1    evaluate on one worker, in input order
//	experiments -timeout 2m   give up (cleanly) after two minutes
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/bounds"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fractional"
	"repro/internal/pfaulty"
	"repro/internal/potential"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/strategy"
)

func main() {
	only := flag.Int("only", 0, "run a single experiment id (1..15); 0 = all")
	workers := flag.Int("workers", 0, "worker-pool size for the evaluations (0 = GOMAXPROCS, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "overall compute budget (0 = none); the engine cancels cooperatively")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// The redraw-in-place meter is for humans: suppress it when stderr
	// is not a terminal so captured logs don't fill with \r segments.
	var progress io.Writer
	if fi, err := os.Stderr.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
		progress = os.Stderr
	}
	if err := run(ctx, os.Stdout, progress, *only, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// exec carries the per-run environment every experiment receives: the
// shared engine and the (possibly nil) progress sink.
type exec struct {
	eng      *engine.Engine
	progress io.Writer
}

type experiment struct {
	id   int
	name string
	fn   func(context.Context, io.Writer, *exec) error
}

func run(ctx context.Context, w, progress io.Writer, only, workers int) error {
	x := &exec{eng: engine.New(workers), progress: progress}
	experiments := []experiment{
		{1, "E1: Theorem 1 — A(k,f) closed form vs. measured strategy ratio", e01},
		{2, "E2: Byzantine transfer — B(3,1) >= 5.2333 (prior 3.93)", e02},
		{3, "E3: Theorem 3 — potential growth below the bound", e03},
		{4, "E4: Theorem 6 — A(m,k,f) closed form vs. measured", e04},
		{5, "E5: Eq. 10 — ORC covering: bounded at lambda0, refuted below", e05},
		{6, "E6: Eq. 11 — fractional C(eta) curve and rational reduction", e06},
		{7, "E7: Appendix — alpha sweep, minimum at alpha*", e07},
		{8, "E8: f = 0 — parallel m-ray search (classical question)", e08},
		{9, "E9: Lemmas 4 and 5 — kernel maximization and delta threshold", e09},
		{10, "E10: Trivial regimes", e10},
		{11, "E11: The bound as a curve in rho", e11},
		{12, "E12: Applications — contract schedules and hybrid algorithms", e12},
		{13, "E13: p-Faulty half-line search — geometric-family optimum vs. Monte-Carlo (Bonato et al.)", e13},
		{14, "E14: Byzantine line search — transfer bound vs. consistency-observer certainty ratio (Czyzowicz et al.)", e14},
		{15, "E15: Fault-resilience curves — designed-f strategies at every f' from one table build", e15},
	}
	for _, ex := range experiments {
		if only != 0 && ex.id != only {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted before E%d: %w", ex.id, err)
		}
		fmt.Fprintf(w, "## %s\n\n", ex.name)
		if err := ex.fn(ctx, w, x); err != nil {
			return fmt.Errorf("E%d: %w", ex.id, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// meter is the stderr progress line of the stream-driven sweeps: cells
// done, throughput, and ETA, redrawn in place as each cell lands.
type meter struct {
	w     io.Writer // nil = silent
	label string
	total int
	done  int
	start time.Time
}

func newMeter(w io.Writer, label string, total int) *meter {
	return &meter{w: w, label: label, total: total, start: time.Now()}
}

// tick records one finished cell and redraws the line.
func (m *meter) tick() {
	m.done++
	if m.w == nil {
		return
	}
	elapsed := time.Since(m.start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	rate := float64(m.done) / elapsed
	eta := "-"
	if rate > 0 {
		eta = (time.Duration(float64(m.total-m.done) / rate * float64(time.Second))).Round(time.Second).String()
	}
	fmt.Fprintf(m.w, "\r%s: %d/%d cells  %.1f cells/s  ETA %s ", m.label, m.done, m.total, rate, eta)
}

// finish ends the progress line.
func (m *meter) finish() {
	if m.w != nil && m.done > 0 {
		fmt.Fprintln(m.w)
	}
}

// sweepTable streams the cells through the engine with a live progress
// meter and returns the shaped table — the same bytes the batch path
// produces, built incrementally.
func sweepTable(ctx context.Context, x *exec, label string, cells []engine.Cell, horizon float64) (*server.SweepTable, error) {
	m := newMeter(x.progress, label, len(cells))
	table, err := server.ComputeSweep(ctx, x.eng, cells, horizon, func(server.SweepCell) { m.tick() })
	m.finish()
	return table, err
}

// e01 renders through the shared server.SweepTable response struct, so
// this table and a boundsd /v1/sweep?m=2&kmax=6&format=markdown answer
// are the same bytes.
func e01(ctx context.Context, w io.Writer, x *exec) error {
	table, err := sweepTable(ctx, x, "E1 sweep", engine.Grid(2, 6), 2e5)
	if table != nil && len(table.Cells) > 0 {
		if _, werr := io.WriteString(w, table.MarkdownLine()); werr != nil {
			return werr
		}
	}
	return err
}

func e02(_ context.Context, w io.Writer, _ *exec) error {
	improved := bounds.B31Improved()
	hp, err := bounds.HighPrecisionBound(4, 3, 160)
	if err != nil {
		return err
	}
	tb := report.NewTable("", "quantity", "value")
	tb.AddRow("prior bound B(3,1) (ISAAC'16)", report.Fmt(bounds.B31Prior, 6))
	tb.AddRow("paper's transfer bound (8/3)*4^(1/3)+1", report.Fmt(improved, 12))
	tb.AddRow("certified to 30 digits", hp.Lambda0.Lo.Text('g', 30))
	tb.AddRow("improvement factor", report.Fmt(improved/bounds.B31Prior, 6))
	_, err = io.WriteString(w, tb.Markdown())
	return err
}

func e03(_ context.Context, w io.Writer, _ *exec) error {
	tb := report.NewTable("", "lambda/lambda0", "verdict", "delta", "min step ratio", "max survivable steps", "observed steps")
	p := core.Problem{M: 2, K: 3, F: 1}
	lambda0, err := p.LowerBound()
	if err != nil {
		return err
	}
	s, err := p.OptimalStrategy()
	if err != nil {
		return err
	}
	var turns [][]float64
	for r := 0; r < 3; r++ {
		seq, err := s.LineTurns(r, 4000)
		if err != nil {
			return err
		}
		turns = append(turns, seq)
	}
	for _, factor := range []float64{1.0001, 0.99, 0.95, 0.9} {
		cert, err := potential.RefuteSymmetricStrategy(turns, bounds.SlackS(3, 1), lambda0*factor, 400)
		if err != nil {
			return err
		}
		minRatio := report.Fmt(cert.MinStepRatio, 6)
		if math.IsInf(cert.MinStepRatio, 1) {
			minRatio = "-"
		}
		tb.AddRow(
			report.Fmt(factor, 6), cert.Verdict.String(), report.Fmt(cert.Delta, 6),
			minRatio, strconv.Itoa(cert.MaxSteps), strconv.Itoa(cert.Steps),
		)
	}
	_, err = io.WriteString(w, tb.Markdown())
	return err
}

// e04, like e01, prints the shared renderer's bytes (the m-ray table of
// server.SweepTable).
func e04(ctx context.Context, w io.Writer, x *exec) error {
	cells := []engine.Cell{
		{M: 2, K: 1, F: 0}, {M: 2, K: 3, F: 1}, {M: 3, K: 2, F: 0}, {M: 3, K: 4, F: 1},
		{M: 4, K: 3, F: 0}, {M: 4, K: 5, F: 1}, {M: 5, K: 4, F: 0}, {M: 6, K: 5, F: 0},
	}
	table, err := sweepTable(ctx, x, "E4 sweep", cells, 2e5)
	if table != nil && len(table.Cells) > 0 {
		if _, werr := io.WriteString(w, table.MarkdownRays()); werr != nil {
			return werr
		}
	}
	return err
}

func e05(ctx context.Context, w io.Writer, _ *exec) error {
	tb := report.NewTable("", "m", "k", "q", "lambda/lambda0", "verdict", "detail")
	cases := []struct{ m, k int }{{3, 2}, {2, 1}}
	for _, c := range cases {
		p := core.Problem{M: c.m, K: c.k, F: 0}
		for _, factor := range []float64{1.001, 0.95} {
			var (
				cert potential.Certificate
				err  error
			)
			if factor >= 1 {
				s, serr := p.OptimalStrategy()
				if serr != nil {
					return serr
				}
				lambda0, lerr := p.LowerBound()
				if lerr != nil {
					return lerr
				}
				turns := make([][]float64, s.K())
				for r := range turns {
					if turns[r], err = strategy.Turns(s, r, 2000); err != nil {
						return err
					}
				}
				cert, err = p.RefuteStrategy(turns, lambda0*factor, 250)
			} else {
				cert, err = p.RefuteBelow(ctx, factor, 250)
			}
			if err != nil {
				return err
			}
			detail := cert.GapDetail
			if detail == "" {
				detail = fmt.Sprintf("logF %.4g of cap %.4g", cert.LogFEnd, cert.LogFBound)
			}
			tb.AddRow(
				strconv.Itoa(c.m), strconv.Itoa(c.k), strconv.Itoa(c.m),
				report.Fmt(factor, 5), cert.Verdict.String(), detail,
			)
		}
	}
	_, err := io.WriteString(w, tb.Markdown())
	return err
}

func e06(_ context.Context, w io.Writer, _ *exec) error {
	tb := report.NewTable("", "eta", "C(eta) closed form", "best q/k (k<=12)", "C(k,q)", "measured reduction ratio")
	for _, eta := range []float64{1.25, 1.5, 2, 2.5, 3, 4} {
		ceta, err := bounds.CEta(eta)
		if err != nil {
			return err
		}
		robots, q, k, err := fractional.ReductionRobots(eta, 12, 5e4)
		if err != nil {
			return err
		}
		ckq, err := bounds.CKQ(k, q)
		if err != nil {
			return err
		}
		measured, err := fractional.MeasuredRatio(robots, eta, 1e4)
		if err != nil {
			return err
		}
		tb.AddRow(
			report.Fmt(eta, 4), report.Fmt(ceta, 9),
			fmt.Sprintf("%d/%d", q, k), report.Fmt(ckq, 9), report.Fmt(measured, 9),
		)
	}
	_, err := io.WriteString(w, tb.Markdown())
	return err
}

func e07(ctx context.Context, w io.Writer, x *exec) error {
	m, k, f := 2, 3, 1
	q := m * (f + 1)
	star, err := bounds.OptimalAlpha(q, k)
	if err != nil {
		return err
	}
	series := report.Series{
		Name:   fmt.Sprintf("measured ratio vs alpha (m=%d k=%d f=%d; alpha* = %.6g)", m, k, f, star),
		XLabel: "alpha",
		YLabel: "measured sup ratio",
	}
	var (
		alphas []float64
		jobs   []engine.Job
	)
	for i := -4; i <= 4; i++ {
		alpha := star * math.Pow(1.12, float64(i))
		if alpha <= 1 {
			continue
		}
		s, err := strategy.NewCyclicExponentialAlpha(m, k, f, alpha)
		if err != nil {
			return err
		}
		alphas = append(alphas, alpha)
		jobs = append(jobs, engine.ExactRatio{Strategy: s, Faults: f, Horizon: 5e4})
	}
	results, err := x.eng.RunBatch(ctx, jobs)
	if err != nil {
		return err
	}
	for i, res := range results {
		series.Add(alphas[i], res.Eval.WorstRatio)
	}
	if _, err := io.WriteString(w, series.Markdown()); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\nminimum of the sweep at alpha = %.6g (alpha* = %.6g)\n",
		series.ArgMin(), star)
	return err
}

func e08(ctx context.Context, w io.Writer, x *exec) error {
	tb := report.NewTable("", "m", "k", "A(m,k,0)", "measured", "ray-split baseline", "classical k=1 check")
	cases := []struct{ m, k int }{{2, 1}, {3, 1}, {3, 2}, {4, 2}, {4, 3}, {5, 2}}
	// Fan out the optimal-strategy evaluations and the ray-split
	// baselines as one batch; results come back in job order.
	var jobs []engine.Job
	optIdx := make([]int, len(cases))
	baseIdx := make([]int, len(cases)) // index into jobs; -1 = no baseline
	for i, c := range cases {
		optIdx[i] = len(jobs)
		jobs = append(jobs, engine.VerifyUpper{M: c.m, K: c.k, F: 0, Horizon: 1e5})
		baseIdx[i] = -1
		if c.k < c.m {
			base, err := strategy.NewRaySplit(c.m, c.k)
			if err != nil {
				return err
			}
			baseIdx[i] = len(jobs)
			jobs = append(jobs, engine.ExactRatio{Strategy: base, Faults: 0, Horizon: 1e5})
		}
	}
	results, err := x.eng.RunBatch(ctx, jobs)
	if err != nil {
		return err
	}
	for i, c := range cases {
		closed, err := bounds.AMKF(c.m, c.k, 0)
		if err != nil {
			return err
		}
		ev := results[optIdx[i]].Eval
		baseCell := "-"
		if baseIdx[i] >= 0 {
			baseCell = report.Fmt(results[baseIdx[i]].Eval.WorstRatio, 6)
		}
		classic := "-"
		if c.k == 1 {
			v, err := bounds.SingleRobotMRays(c.m)
			if err != nil {
				return err
			}
			classic = report.Fmt(v, 9)
		}
		tb.AddRow(
			strconv.Itoa(c.m), strconv.Itoa(c.k),
			report.Fmt(closed, 9), report.Fmt(ev.WorstRatio, 9), baseCell, classic,
		)
	}
	_, err = io.WriteString(w, tb.Markdown())
	return err
}

func e09(_ context.Context, w io.Writer, _ *exec) error {
	tb := report.NewTable("", "s", "k", "mu_crit = mu(k+s,k)", "delta at 0.99*mu_crit", "delta at mu_crit", "delta at 1.01*mu_crit")
	for _, c := range []struct{ s, k int }{{1, 1}, {1, 3}, {2, 3}, {3, 5}} {
		muCrit, err := bounds.MuQK(float64(c.k+c.s), float64(c.k))
		if err != nil {
			return err
		}
		row := []string{strconv.Itoa(c.s), strconv.Itoa(c.k), report.Fmt(muCrit, 9)}
		for _, scale := range []float64{0.99, 1, 1.01} {
			d, err := bounds.Lemma5Delta(muCrit*scale, float64(c.s), float64(c.k))
			if err != nil {
				return err
			}
			row = append(row, report.Fmt(d, 6))
		}
		tb.AddRow(row...)
	}
	_, err := io.WriteString(w, tb.Markdown())
	return err
}

func e10(_ context.Context, w io.Writer, _ *exec) error {
	tb := report.NewTable("", "m", "k", "f", "regime", "ratio")
	cases := []struct{ m, k, f int }{
		{2, 4, 1}, {2, 2, 0}, {3, 6, 1}, {2, 2, 2}, {3, 1, 1}, {2, 3, 1},
	}
	for _, c := range cases {
		regime, err := bounds.Classify(c.m, c.k, c.f)
		if err != nil {
			return err
		}
		v, _ := bounds.AMKF(c.m, c.k, c.f)
		tb.AddRow(
			strconv.Itoa(c.m), strconv.Itoa(c.k), strconv.Itoa(c.f),
			regime.String(), report.Fmt(v, 9),
		)
	}
	_, err := io.WriteString(w, tb.Markdown())
	return err
}

func e11(_ context.Context, w io.Writer, _ *exec) error {
	series := report.Series{
		Name:   "lambda = 2*rho^rho/(rho-1)^(rho-1) + 1 over rho in (1, 2]",
		XLabel: "rho",
		YLabel: "lambda",
	}
	for i := 1; i <= 20; i++ {
		rho := 1 + float64(i)/20
		v, err := bounds.RhoForm(rho)
		if err != nil {
			return err
		}
		series.Add(rho, v)
	}
	_, err := io.WriteString(w, series.Markdown())
	return err
}

func e12(_ context.Context, w io.Writer, _ *exec) error {
	tb := report.NewTable("Contract schedules: AR* = mu(m+k, k)",
		"m", "k", "AR* closed form", "measured AR", "alpha*")
	for _, c := range []struct{ m, k int }{{2, 1}, {3, 1}, {4, 1}, {3, 2}} {
		star, err := contract.ARStar(c.m, c.k)
		if err != nil {
			return err
		}
		base, err := contract.OptimalContractBase(c.m, c.k)
		if err != nil {
			return err
		}
		sched, err := contract.NewCyclicSchedule(c.m, c.k, base, 1e5)
		if err != nil {
			return err
		}
		ar, err := sched.AccelerationRatio()
		if err != nil {
			return err
		}
		tb.AddRow(
			strconv.Itoa(c.m), strconv.Itoa(c.k),
			report.Fmt(star, 9), report.Fmt(ar, 9), report.Fmt(base, 6),
		)
	}
	if _, err := io.WriteString(w, tb.Markdown()); err != nil {
		return err
	}

	hy := report.NewTable("Hybrid algorithms: serialized k-robot search",
		"m", "k", "measured slowdown", "closed form (coprime)")
	for _, c := range []struct{ m, k int }{{2, 1}, {3, 2}, {4, 3}} {
		res, err := contract.HybridSlowdown(c.m, c.k, 5e4)
		if err != nil {
			return err
		}
		alpha, err := bounds.OptimalAlpha(c.m, c.k)
		if err != nil {
			return err
		}
		closed, err := contract.ExpHybridSlowdown(c.m, c.k, alpha)
		closedCell := "-"
		if err == nil {
			closedCell = report.Fmt(closed, 9)
		}
		hy.AddRow(strconv.Itoa(c.m), strconv.Itoa(c.k), report.Fmt(res.Slowdown, 9), closedCell)
	}
	fmt.Fprintln(w)
	_, err := io.WriteString(w, hy.Markdown())
	return err
}

// e13 reproduces the p-Faulty half-line model (the "pfaulty-halfline"
// registry scenario): for a sweep of fault probabilities, the optimal
// geometric base, the closed-form worst-case expected ratio, and the
// Monte-Carlo estimate at the probe distance. The trial jobs resolve
// through the registry's VerifyJob constructor, so each p gets its own
// derived seed (independent sample paths) exactly as /v1/verify
// serves them.
func e13(ctx context.Context, w io.Writer, x *exec) error {
	const (
		probeX  = 7.5
		samples = 4000
	)
	sc, err := registry.Get("pfaulty-halfline")
	if err != nil {
		return err
	}
	ps := []float64{0.1, 0.25, 0.5, 0.75}
	tb := report.NewTable("", "p", "b* (geometric family)", "worst expected ratio", "closed form at probe", "Monte-Carlo at probe", "rel. gap")
	var (
		jobs   []engine.Job
		bases  []float64
		worsts []float64
		closes []float64
	)
	for _, p := range ps {
		base, worst, err := pfaulty.OptimalBase(p)
		if err != nil {
			return err
		}
		closed, err := pfaulty.ExpectedRatio(base, p, probeX)
		if err != nil {
			return err
		}
		bases, worsts, closes = append(bases, base), append(worsts, worst), append(closes, closed)
		job, err := sc.VerifyJob(ctx, registry.Request{M: 1, K: 1, F: 0, P: p, Samples: samples})
		if err != nil {
			return err
		}
		jobs = append(jobs, job)
	}
	results, err := x.eng.RunBatch(ctx, jobs)
	if err != nil {
		return err
	}
	for i, p := range ps {
		mc := results[i].Value
		tb.AddRow(
			report.Fmt(p, 4), report.Fmt(bases[i], 6), report.Fmt(worsts[i], 9),
			report.Fmt(closes[i], 9), report.Fmt(mc, 9), report.Fmt((mc-closes[i])/closes[i], 2),
		)
	}
	_, err = io.WriteString(w, tb.Markdown())
	return err
}

// e14 reproduces the Byzantine line-search table (the "byzantine-line"
// registry scenario): the transfer lower bound B(k,f) >= A(2,k,f)
// against the measured consistency-observer certainty ratio, at a
// probe distance and as the worst over a distance grid.
func e14(ctx context.Context, w io.Writer, x *exec) error {
	const (
		probeDist = 7.5
		horizon   = 50.0
		points    = 8
	)
	cases := []struct{ k, f int }{{1, 0}, {2, 1}, {3, 1}, {3, 2}}
	var jobs []engine.Job
	for _, c := range cases {
		jobs = append(jobs,
			engine.ByzantineLineSim{K: c.k, F: c.f, Dist: probeDist},
			engine.ByzantineLineWorst{K: c.k, F: c.f, Horizon: horizon, Points: points},
		)
	}
	results, err := x.eng.RunBatch(ctx, jobs)
	if err != nil {
		return err
	}
	tb := report.NewTable("", "k", "f", "transfer bound A(2,k,f)", "certainty ratio at probe", "worst over grid")
	for i, c := range cases {
		transfer, err := bounds.AMKF(2, c.k, c.f)
		if err != nil {
			return err
		}
		tb.AddRow(
			strconv.Itoa(c.k), strconv.Itoa(c.f), report.Fmt(transfer, 9),
			report.Fmt(results[2*i].Value, 9), report.Fmt(results[2*i+1].Value, 9),
		)
	}
	_, err = io.WriteString(w, tb.Markdown())
	return err
}

// e15 is the fault-resilience curve of the optimal strategies: the
// designed-f cyclic exponential strategy evaluated at EVERY fault count
// f' <= f through one engine.FRangeRatio job — one visit-table build
// per strategy for the whole curve (the adversary.Evaluator cross-f
// reuse). The overhead column shows what over-provisioning for f
// faults costs when fewer actually occur: the measured ratio of the
// designed strategy against the f'-optimal closed form A(k, f').
func e15(ctx context.Context, w io.Writer, x *exec) error {
	const horizon = 2e4
	cases := []struct{ k, f int }{{3, 1}, {5, 2}, {7, 3}}
	var jobs []engine.Job
	for _, c := range cases {
		s, err := strategy.NewCyclicExponential(2, c.k, c.f)
		if err != nil {
			return err
		}
		jobs = append(jobs, engine.FRangeRatio{Strategy: s, MaxF: c.f, Horizon: horizon})
	}
	results, err := x.eng.RunBatch(ctx, jobs)
	if err != nil {
		return err
	}
	tb := report.NewTable("", "k", "designed f", "evaluated f", "A(k,f') optimal", "measured (one build)", "overhead")
	for i, c := range cases {
		for f, ev := range results[i].Evals {
			opt, err := bounds.AKF(c.k, f)
			if err != nil {
				return err
			}
			tb.AddRow(
				strconv.Itoa(c.k), strconv.Itoa(c.f), strconv.Itoa(f),
				report.Fmt(opt, 9), report.Fmt(ev.WorstRatio, 9),
				report.Fmt(ev.WorstRatio/opt, 4),
			)
		}
	}
	_, err = io.WriteString(w, tb.Markdown())
	return err
}
