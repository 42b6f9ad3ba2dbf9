// Command verifybound checks an externally supplied collective ORC
// strategy against the Eq. (10) lower bound: it either validates the
// claimed q-fold lambda-covering or emits a machine-checked refutation
// certificate (a coverage gap or a potential-function contradiction).
//
// The strategy file has one robot per line, excursion distances separated
// by spaces; '#' starts a comment:
//
//	# two robots
//	1 2 4 8 16 32
//	1.5 3 6 12 24
//
// Usage:
//
//	verifybound -q 2 -lambda 8.5 -upto 100 strategy.txt
//
// Alternatively, -strategy-file compiles a strategy-program script (the
// sandboxed DSL of POST /v1/strategies, see internal/strategy/program)
// and verifies the rounds it generates for (-m, -k, -f) up to -upto:
//
//	verifybound -strategy-file cyclic.prog -m 2 -k 3 -f 1 -q 4 -lambda 20 -upto 100
//
// The -model flag resolves through the scenario registry; the Eq. (10)
// refutation machinery is the crash model's, so only scenarios whose
// lower bound is the crash transfer (crash itself, byzantine) are
// accepted — byzantine soundly, since any Byzantine-tolerant covering
// is also crash-tolerant.
package main

import (
	"bufio"
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
	"repro/internal/potential"
	"repro/internal/registry"
	"repro/internal/strategy/program"
)

func main() {
	var (
		q        = flag.Int("q", 2, "required covering multiplicity")
		lambda   = flag.Float64("lambda", 9, "claimed competitive ratio")
		upTo     = flag.Float64("upto", 100, "verify covering of (1, upto]")
		caseC    = flag.Float64("casec", 1e9, "Case-1/Case-2 split constant of the Eq. (10) proof")
		model    = flag.String("model", "crash", "fault model (a registry scenario name)")
		timeout  = flag.Duration("timeout", 0, "give up after this long (0 = none)")
		progFile = flag.String("strategy-file", "", "compile this strategy-program script and verify its generated rounds (replaces the turns-file argument)")
		mFlag    = flag.Int("m", 2, "rays the script is instantiated for (with -strategy-file)")
		kFlag    = flag.Int("k", 1, "robots the script is instantiated for (with -strategy-file)")
		fFlag    = flag.Int("f", 0, "faults the script is instantiated for (with -strategy-file)")
	)
	flag.Parse()
	var input io.Reader
	switch {
	case *progFile != "":
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: verifybound -strategy-file script.prog [flags]  (no turns file with -strategy-file)")
			os.Exit(2)
		}
		turns, err := scriptTurns(*progFile, *mFlag, *kFlag, *fFlag, *upTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "verifybound:", err)
			os.Exit(1)
		}
		input = turns
	case flag.NArg() == 1:
		file, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "verifybound:", err)
			os.Exit(1)
		}
		defer file.Close()
		input = file
	default:
		fmt.Fprintln(os.Stderr, "usage: verifybound [flags] strategy.txt")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, os.Stdout, input, *model, *q, *lambda, *upTo, *caseC); err != nil {
		fmt.Fprintln(os.Stderr, "verifybound:", err)
		os.Exit(1)
	}
}

// scriptTurns compiles a strategy-program script, instantiates it for
// (m, k, f) with the optimal base, materialises every robot's rounds up
// to horizon, and renders the turn distances in the turns-file format,
// so the scripted path feeds the exact same parsing and verification
// pipeline as a hand-written strategy file (FormatFloat 'g'/-1 rendering
// round-trips every float64 bit-exactly).
func scriptTurns(path string, m, k, f int, horizon float64) (io.Reader, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := program.Compile(string(src))
	if err != nil {
		return nil, err
	}
	inst, err := prog.New(m, k, f)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# compiled strategy program %s (m=%d k=%d f=%d horizon=%g)\n", prog.Hash()[:16], m, k, f, horizon)
	for r := 0; r < k; r++ {
		rounds, err := inst.AppendRounds(nil, r, horizon)
		if err != nil {
			return nil, fmt.Errorf("robot %d: %w", r, err)
		}
		for i, rd := range rounds {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.FormatFloat(rd.Turn, 'g', -1, 64))
		}
		sb.WriteByte('\n')
	}
	return strings.NewReader(sb.String()), nil
}

func run(ctx context.Context, w io.Writer, r io.Reader, model string, q int, lambda, upTo, caseC float64) error {
	sc, err := registry.Get(model)
	if err != nil {
		return err
	}
	switch sc.Name {
	case "crash", "byzantine":
		// The Eq. (10) ORC machinery applies: byzantine inherits crash
		// coverings through the transfer principle.
	default:
		return fmt.Errorf("scenario %q is not an ORC-covering model; the Eq. (10) checker supports crash and byzantine", sc.Name)
	}
	turns, err := parseStrategy(r)
	if err != nil {
		return err
	}
	k := len(turns)
	fmt.Fprintf(w, "robots: %d, multiplicity q: %d, lambda: %g, range: (1, %g]\n", k, q, lambda, upTo)
	if q > k {
		l0, err := bounds.CKQ(k, q)
		if err == nil {
			fmt.Fprintf(w, "Eq. (10) bound for (k=%d, q=%d): lambda >= %.9g\n", k, q, l0)
		}
	}
	// The refutation pipeline is not context-aware; run it aside and
	// abandon it on timeout/interrupt — this is a short-lived CLI, so
	// process exit reclaims the work either way.
	type outcome struct {
		cert potential.Certificate
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		cert, err := potential.RefuteORCStrategy(turns, q, lambda, upTo, caseC)
		ch <- outcome{cert, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			return o.err
		}
		printCertificate(w, o.cert, 0)
		return nil
	case <-ctx.Done():
		return fmt.Errorf("gave up: %w", ctx.Err())
	}
}

func printCertificate(w io.Writer, cert potential.Certificate, depth int) {
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(w, "%sverdict: %s\n", ind, cert.Verdict)
	if cert.GapDetail != "" {
		fmt.Fprintf(w, "%s  coverage gap: %s\n", ind, cert.GapDetail)
		return
	}
	fmt.Fprintf(w, "%s  mu=%.6g (critical %.6g), delta=%.9g\n", ind, cert.Mu, cert.MuCrit, cert.Delta)
	fmt.Fprintf(w, "%s  steps=%d (warmup %d), log f: %.6g -> %.6g (cap %.6g)\n",
		ind, cert.Steps, cert.WarmupSteps, cert.LogFStart, cert.LogFEnd, cert.LogFBound)
	switch cert.Verdict {
	case potential.VerdictExhausted:
		fmt.Fprintf(w, "%s  below the bound: any valid cover stalls within %d steps (observed %d); %d more would contradict\n",
			ind, cert.MaxSteps, cert.Steps, cert.StepsNeeded)
	case potential.VerdictContradiction:
		fmt.Fprintf(w, "%s  contradiction at post-warmup step %d\n", ind, cert.ContradictionStep)
	case potential.VerdictBounded:
		fmt.Fprintf(w, "%s  potential stayed below its cap: the covering is consistent with lambda\n", ind)
	}
	if cert.Sub != nil {
		fmt.Fprintf(w, "%s  case-2 recursion (k-1 robots, q-1 fold):\n", ind)
		printCertificate(w, *cert.Sub, depth+1)
	}
}

func parseStrategy(r io.Reader) ([][]float64, error) {
	var out [][]float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		turns := make([]float64, 0, len(fields))
		for _, tok := range fields {
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: parse %q: %w", lineNo, tok, err)
			}
			turns = append(turns, v)
		}
		out = append(out, turns)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no robots in input")
	}
	return out, nil
}
