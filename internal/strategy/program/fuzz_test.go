package program

import (
	"errors"
	"strings"
	"testing"
)

// fuzzSeeds are the corpus starting points: every statement form, every
// builtin, the shipped cyclic script, and inputs that probe the limits
// and past compile errors.
var fuzzSeeds = []string{
	doubling,
	"q := m * (f + 1)\nstop := log(horizon)/log(alpha) + (q + k*m)\nbase := m * (r + 1)\nl := 1 - 2*m\ne := k*l + base\nstep := pow(alpha, k)\nturn := pow(alpha, e)\nfor e <= stop {\n\temit(mod(l-1, m)+1, turn)\n\tturn = turn * step\n\tl = l + 1\n\te = k*l + base\n}\n",
	"emit(1, 2)",
	"if r > 0 {\n\temit(1, 2)\n} else {\n\temit(1, 3)\n}",
	"for i := 0; i < 4; i = i + 1 {\n\temit(1, i + 1.5)\n}",
	"x := 1.0\nfor {\n\tx = x * 2\n\tif x > horizon {\n\t\tbreak\n\t}\n\temit(1, x)\n}",
	"a := min(max(1, 2), abs(0-3)) + floor(2.5)*ceil(0.5) + sqrt(4) + exp(0)\nemit(1, a)",
	"for {\n}",
	"a := 5 % 2",
	"a := 1\na := 2",
	"return",
	"x := 0\nx += 1\nx -= 2\nx *= 3\nx /= 4\nx++\nx--\nemit(1, abs(x)+1)",
	"emit(0/0, 1/0)",
	"{",
	"emit(1, 1e308*10)",
}

// FuzzCompile throws arbitrary byte strings at the parser/compiler and,
// when one compiles, at the evaluator. The properties under fuzz:
//
//   - Compile never panics and never hangs: every input either yields a
//     program or an error wrapping ErrCompile.
//   - A compiled program's hash is deterministic (recompiling the same
//     source reproduces it) and parseable as a fixed-width hex string.
//   - Evaluating a compiled program against a small instance terminates
//     within the gas budget and either returns rounds or a sandbox
//     error — arbitrary accepted scripts cannot wedge the VM.
//
// CI runs this for a short -fuzztime as a smoke gate; `go test -fuzz
// FuzzCompile ./internal/strategy/program` explores further locally.
func FuzzCompile(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Compile(src)
		if err != nil {
			if !errors.Is(err, ErrCompile) {
				t.Fatalf("compile error does not wrap ErrCompile: %v", err)
			}
			return
		}
		if len(p.Hash()) != 64 || strings.Trim(p.Hash(), "0123456789abcdef") != "" {
			t.Fatalf("hash %q is not 64 hex chars", p.Hash())
		}
		again, err := Compile(src)
		if err != nil {
			t.Fatalf("recompile of accepted source failed: %v", err)
		}
		if again.Hash() != p.Hash() {
			t.Fatalf("hash not deterministic: %s vs %s", p.Hash(), again.Hash())
		}
		inst, err := p.NewAlpha(2, 2, 1, 1.5)
		if err != nil {
			return // instantiation may reject params relative to the program
		}
		rounds, err := inst.AppendRounds(nil, 0, 50)
		if err != nil {
			// Any sandbox error is fine; a non-sandbox error is not.
			if !errors.Is(err, ErrEval) && !errors.Is(err, ErrGasExhausted) &&
				!errors.Is(err, ErrTooManyRounds) && !errors.Is(err, ErrBadParams) {
				t.Fatalf("evaluation error outside the sandbox taxonomy: %v", err)
			}
			return
		}
		for i, rd := range rounds {
			if rd.Ray < 1 || rd.Ray > 2 {
				t.Fatalf("round %d: ray %d escaped 1..m", i, rd.Ray)
			}
			if !(rd.Turn > 0) {
				t.Fatalf("round %d: non-positive turn %g survived emit validation", i, rd.Turn)
			}
		}
	})
}
