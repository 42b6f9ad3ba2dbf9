// Command bounds prints the closed-form competitive-ratio bounds of
// Kupavskii–Welzl (PODC 2018) for ranges of parameters:
//
//	bounds -m 2 -kmax 8            Theorem 1 table A(k, f)
//	bounds -m 4 -kmax 8            Theorem 6 table A(4, k, f)
//	bounds -model byzantine        transfer lower bounds from the registry
//	bounds -scenarios              list the registered fault models
//	bounds -eta 1.25,1.5,2,3       fractional C(eta) values (Eq. 11)
//	bounds -m 2 -kmax 8 -prec 128  add certified high-precision digits
//
// The fault model resolves through the scenario registry
// (internal/registry) and the table renders through the same response
// structs the boundsd HTTP API serves, so `bounds -m 2 -kmax 8` and
// `curl boundsd/v1/bounds?m=2&kmax=8&format=markdown` are
// byte-identical. The certified enclosures are computed on the
// internal/engine worker pool (-workers; the table prints in
// deterministic order regardless).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/server"
)

func main() {
	var (
		m         = flag.Int("m", 2, "number of rays (2 = the line)")
		kmax      = flag.Int("kmax", 8, "largest robot count to tabulate")
		model     = flag.String("model", "crash", "fault model (a registry scenario name)")
		scenarios = flag.Bool("scenarios", false, "list the registered scenarios and exit")
		etas      = flag.String("eta", "", "comma-separated eta values for the fractional bound")
		prec      = flag.Uint("prec", 0, "if > 0, also print certified enclosures at this many bits")
		workers   = flag.Int("workers", 0, "worker-pool size for the enclosures (0 = GOMAXPROCS, 1 = serial)")
		timeout   = flag.Duration("timeout", 0, "compute budget for the enclosure sweep (0 = none)")
	)
	flag.Parse()
	if *scenarios {
		if err := printScenarios(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bounds:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, os.Stdout, *m, *kmax, *etas, *prec, *workers, *model); err != nil {
		fmt.Fprintln(os.Stderr, "bounds:", err)
		os.Exit(1)
	}
}

// printScenarios renders the registry listing — the CLI view of what
// boundsd serves as /v1/scenarios.
func printScenarios(w io.Writer) error {
	tb := report.NewTable("Registered scenarios", "name", "upper bound", "verifiable", "simulatable", "description")
	for _, sc := range registry.Default().All() {
		tb.AddRow(sc.Name, strconv.FormatBool(sc.HasUpperBound), strconv.FormatBool(sc.Verifiable),
			strconv.FormatBool(sc.Simulatable), sc.Description)
	}
	_, err := fmt.Fprint(w, tb.Markdown())
	return err
}

func run(ctx context.Context, w io.Writer, m, kmax int, etas string, prec uint, workers int, model string) error {
	if etas != "" {
		return printEtas(w, etas)
	}
	sc, err := registry.Get(model)
	if err != nil {
		return err
	}
	table, err := server.ComputeBoundsTable(sc, m, kmax)
	if err != nil {
		return err
	}
	fmt.Fprint(w, table.Markdown())

	if prec > 0 {
		hp := report.NewTable(
			fmt.Sprintf("Certified enclosures at %d bits (search regime only)", prec),
			"k", "f", "lambda0 (certified midpoint)", "enclosure width",
		)
		// Collect the search-regime cells, compute the enclosures on
		// the pool, and print in cell order.
		var cells []engine.Cell
		for k := 1; k <= kmax; k++ {
			for f := 0; f < k; f++ {
				regime, err := bounds.Classify(m, k, f)
				if err != nil || regime != bounds.RegimeSearch {
					continue
				}
				cells = append(cells, engine.Cell{M: m, K: k, F: f})
			}
		}
		type enclosure struct {
			hp  bounds.HighPrecision
			err error
		}
		// Enclosures reach emit in cell order, so it prints them; the
		// first failure stops the pool.
		engine.Ordered(ctx, workers, len(cells), func(i int) (enclosure, bool) {
			v, herr := bounds.HighPrecisionBound(cells[i].M*(cells[i].F+1), cells[i].K, prec)
			return enclosure{v, herr}, true
		}, func(i int, enc enclosure) bool {
			if err = enc.err; err != nil {
				return false
			}
			widthF, _ := enc.hp.Lambda0.Width().Float64()
			hp.AddRow(
				strconv.Itoa(cells[i].K), strconv.Itoa(cells[i].F),
				enc.hp.Lambda0.Lo.Text('g', 30), report.Fmt(widthF, 3),
			)
			return true
		})
		if err == nil && len(hp.Rows) < len(cells) {
			err = ctx.Err()
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, hp.Markdown())
	}
	return nil
}

func printEtas(w io.Writer, spec string) error {
	tb := report.NewTable("Fractional one-ray retrieval C(eta) (Eq. 11)", "eta", "C(eta)")
	for _, tok := range strings.Split(spec, ",") {
		eta, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("parse eta %q: %w", tok, err)
		}
		v, err := bounds.CEta(eta)
		if err != nil {
			return err
		}
		tb.AddRow(report.Fmt(eta, 6), report.Fmt(v, 9))
	}
	fmt.Fprint(w, tb.Markdown())
	return nil
}
