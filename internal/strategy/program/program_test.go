package program

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// doubling is a minimal valid single-ray script: turn doubles each
// round, covering (1, horizon] for m=1.
const doubling = `
turn := 1.0
for turn <= horizon * 4 {
	emit(1, turn)
	turn = turn * 2
}
`

func TestCompileAndRun(t *testing.T) {
	p, err := Compile(doubling)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := p.NewAlpha(1, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := inst.AppendRounds(nil, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("no rounds emitted")
	}
	for i, rd := range rounds {
		if rd.Ray != 1 {
			t.Errorf("round %d: ray %d, want 1 (rays are 1-based)", i, rd.Ray)
		}
		if want := math.Pow(2, float64(i)); rd.Turn != want {
			t.Errorf("round %d: turn %g, want %g", i, rd.Turn, want)
		}
	}
}

// TestHashCanonicalization pins the content-hash contract: the hash
// keys on the canonical IR, so formatting, comments and local variable
// names cannot split the cache — while any semantic difference must.
func TestHashCanonicalization(t *testing.T) {
	base := MustCompile(doubling)
	reformatted := MustCompile(`turn := 1.0 // start at one
// grow geometrically
for turn <= horizon*4 {
	emit(1, turn)
	turn = turn * 2
}`)
	if base.Hash() != reformatted.Hash() {
		t.Errorf("whitespace/comment changes split the hash:\n%s\n%s", base.Hash(), reformatted.Hash())
	}
	renamed := MustCompile(strings.ReplaceAll(doubling, "turn", "d"))
	if base.Hash() != renamed.Hash() {
		t.Errorf("local variable rename split the hash:\n%s\n%s", base.Hash(), renamed.Hash())
	}
	semantic := MustCompile(strings.Replace(doubling, "turn * 2", "turn * 3", 1))
	if base.Hash() == semantic.Hash() {
		t.Error("semantically different scripts share a hash")
	}
	constTweak := MustCompile(strings.Replace(doubling, "turn := 1.0", "turn := 1.0000000000000002", 1))
	if base.Hash() == constTweak.Hash() {
		t.Error("one-ulp constant change shares a hash (constants must hash at full precision)")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"syntax", "turn := ", "compile"},
		{"unknown variable", "emit(1, x)", "unknown variable"},
		{"unknown function", "emit(1, foo(2))", "unknown function"},
		{"redefine", "a := 1\na := 2", "already defined"},
		{"assign undefined", "a = 1", "use := to define"},
		{"modulo operator", "a := 5 % 2", "use mod(a, b)"},
		{"emit as expression", "a := emit(1, 2)", "emit"},
		{"emit arity", "emit(1)", "emit"},
		{"builtin arity", "a := pow(2)", "takes 2 arguments"},
		{"goto", "L: emit(1, 2)", "compile"},
		{"call unsupported stmt", "go emit(1, 2)", "compile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil {
				t.Fatalf("compiled: %q", tc.src)
			}
			if !errors.Is(err, ErrCompile) {
				t.Errorf("error %v does not wrap ErrCompile", err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestSourceSizeLimit(t *testing.T) {
	big := "a := 1\n" + strings.Repeat("// padding comment to exceed the source cap\n", 2000)
	if _, err := Compile(big); !errors.Is(err, ErrCompile) {
		t.Fatalf("oversized source compiled (err=%v)", err)
	}
}

func TestNodeCountLimit(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a := 0\n")
	for i := 0; i < MaxProgramNodes; i++ {
		sb.WriteString("a = a + 1\n")
	}
	if _, err := Compile(sb.String()); !errors.Is(err, ErrCompile) {
		t.Fatalf("program over the node cap compiled (err=%v)", err)
	}
}

// TestGasExhaustion pins the sandbox's core guarantee: a runaway loop
// burns its gas budget and errors — it cannot wedge the evaluator. The
// error names the limit, which the server surfaces in its 400.
func TestGasExhaustion(t *testing.T) {
	for _, src := range []string{
		"for {\n}",                        // empty infinite loop
		"x := 0.0\nfor {\n\tx = x + 1\n}", // busy infinite loop
		"x := 1.0\nfor x > 0 {\n\tx = x + 1\n}",
	} {
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		inst, err := p.NewAlpha(1, 1, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, err = inst.AppendRounds(nil, 0, 10)
		if !errors.Is(err, ErrGasExhausted) {
			t.Fatalf("runaway %q: err = %v, want ErrGasExhausted", src, err)
		}
		if !strings.Contains(err.Error(), "limit") {
			t.Errorf("gas error %q does not name the limit", err)
		}
	}
}

func TestRoundCap(t *testing.T) {
	p := MustCompile(`
for {
	emit(1, 1.5)
}
`)
	inst, err := p.NewAlpha(1, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.AppendRounds(nil, 0, 10)
	// The emit cap or the gas budget must stop it; the cap comes first
	// at these costs.
	if !errors.Is(err, ErrTooManyRounds) && !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("unbounded emit: err = %v", err)
	}
}

func TestEmitValidation(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"ray zero", "emit(0, 1.5)"},
		{"ray past m", "emit(3, 1.5)"},
		{"fractional ray", "emit(1.5, 2)"},
		{"negative turn", "emit(1, -2)"},
		{"NaN turn", "emit(1, log(-1))"},
		{"infinite turn", "emit(1, exp(1e9))"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst, err := MustCompile(tc.src).NewAlpha(2, 1, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.AppendRounds(nil, 0, 10); !errors.Is(err, ErrEval) {
				t.Fatalf("err = %v, want ErrEval", err)
			}
		})
	}
}

func TestInstanceParamValidation(t *testing.T) {
	p := MustCompile(doubling)
	if _, err := p.NewAlpha(0, 1, 0, 2); !errors.Is(err, ErrBadParams) {
		t.Error("m=0 accepted")
	}
	if _, err := p.NewAlpha(1, 0, 0, 2); !errors.Is(err, ErrBadParams) {
		t.Error("k=0 accepted")
	}
	if _, err := p.NewAlpha(1, 1, -1, 2); !errors.Is(err, ErrBadParams) {
		t.Error("f=-1 accepted")
	}
	if _, err := p.NewAlpha(1, 1, 0, 1); !errors.Is(err, ErrBadParams) {
		t.Error("alpha=1 accepted")
	}
	if _, err := p.NewAlpha(1, 1, 0, math.Inf(1)); !errors.Is(err, ErrBadParams) {
		t.Error("alpha=+Inf accepted")
	}
	inst, err := p.NewAlpha(1, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.AppendRounds(nil, 2, 10); !errors.Is(err, ErrBadParams) {
		t.Error("robot index past k accepted")
	}
	if _, err := inst.AppendRounds(nil, 0, math.NaN()); !errors.Is(err, ErrBadParams) {
		t.Error("NaN horizon accepted")
	}
}

// TestFlatScopeAcrossBlocks pins the DSL's flat-scope rule: a variable
// defined inside a block stays visible after it, and pooled VMs must
// not leak one run's locals into the next (fresh runs see zeroed
// slots via definition-before-use enforcement at compile time).
func TestFlatScopeAcrossBlocks(t *testing.T) {
	p := MustCompile(`
if m > 0 {
	d := 2.0
	emit(1, d)
}
emit(1, d + 1)
`)
	inst, err := p.NewAlpha(1, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := inst.AppendRounds(nil, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 2 || rounds[0].Turn != 2 || rounds[1].Turn != 3 {
		t.Fatalf("rounds = %+v", rounds)
	}
	// Run again through the pooled VM: identical output, no stale state.
	again, err := inst.AppendRounds(nil, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0].Turn != 2 || again[1].Turn != 3 {
		t.Fatalf("pooled rerun diverged: %+v", again)
	}
}

func TestBuiltins(t *testing.T) {
	p := MustCompile(`
emit(1, pow(2, 10))
emit(1, sqrt(16))
emit(1, abs(0-3))
emit(1, floor(2.7))
emit(1, ceil(2.2))
emit(1, min(4, 7))
emit(1, max(4, 7))
emit(1, mod(0-1, 3) + 1)
emit(1, exp(0) + log(1) + 1)
`)
	inst, err := p.NewAlpha(1, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := inst.AppendRounds(nil, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1024, 4, 3, 2, 3, 4, 7, 3, 2}
	if len(rounds) != len(want) {
		t.Fatalf("%d rounds, want %d", len(rounds), len(want))
	}
	for i, w := range want {
		if rounds[i].Turn != w {
			t.Errorf("builtin case %d: %g, want %g (mod must floor-normalize)", i, rounds[i].Turn, w)
		}
	}
}
