package adversary

import (
	"context"
	"errors"
	"testing"

	"repro/internal/strategy"
	"repro/internal/strategy/program"
	"repro/internal/trajectory"
)

// TestEvaluatorMatchesPackageFunctions: every fault count answered from
// one prebuilt Evaluator must agree field-for-field with a fresh
// per-call evaluation — the cross-f reuse buys table work, never
// different numbers.
func TestEvaluatorMatchesPackageFunctions(t *testing.T) {
	s, err := strategy.NewCyclicExponential(2, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(s, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for f := 0; f <= 2; f++ {
		want, err := ExactRatio(context.Background(), s, f, 1e4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.ExactRatio(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("f=%d: evaluator %+v, package %+v", f, got, want)
		}
		wantGrid, err := GridRatio(context.Background(), s, f, 1e4, 300)
		if err != nil {
			t.Fatal(err)
		}
		gotGrid, err := e.GridRatio(ctx, f, 300)
		if err != nil {
			t.Fatal(err)
		}
		if gotGrid != wantGrid {
			t.Errorf("f=%d: evaluator grid %.17g, package grid %.17g", f, gotGrid, wantGrid)
		}
	}
}

// TestFRangeMatchesPerFEvaluation: one FRange pass must reproduce the
// per-f ExactRatio answers exactly (same candidate set, same
// arithmetic), for a multi-ray strategy too.
func TestFRangeMatchesPerFEvaluation(t *testing.T) {
	for _, c := range []struct{ m, k, f int }{{2, 5, 2}, {3, 4, 1}, {2, 3, 1}} {
		s, err := strategy.NewCyclicExponential(c.m, c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(s, 5e3)
		if err != nil {
			t.Fatal(err)
		}
		evals, err := e.FRange(context.Background(), c.f)
		if err != nil {
			t.Fatal(err)
		}
		if len(evals) != c.f+1 {
			t.Fatalf("m=%d k=%d: FRange returned %d evals, want %d", c.m, c.k, len(evals), c.f+1)
		}
		for f := 0; f <= c.f; f++ {
			want, err := e.ExactRatio(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			if evals[f] != want {
				t.Errorf("m=%d k=%d f=%d: FRange %+v, ExactRatio %+v", c.m, c.k, f, evals[f], want)
			}
		}
		// More faults can only slow detection: the curve is nondecreasing.
		for f := 1; f <= c.f; f++ {
			if evals[f].WorstRatio < evals[f-1].WorstRatio {
				t.Errorf("resilience curve decreased at f=%d: %g < %g", f, evals[f].WorstRatio, evals[f-1].WorstRatio)
			}
		}
	}
}

// TestEvaluatorQueriesAllocationFree pins the zero-alloc contract of
// the kernel: after construction, ExactRatio allocates nothing.
func TestEvaluatorQueriesAllocationFree(t *testing.T) {
	s, err := strategy.NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(s, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.ExactRatio(ctx, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ExactRatio allocated %.1f objects per run, want 0", allocs)
	}
}

// TestEvaluatorScriptedQueriesAllocationFree pins the same zero-alloc
// contract for a DSL-compiled strategy program: the program's pooled VM
// generates rounds only at Evaluator construction, so post-construction
// queries must stay allocation-free exactly like the native path —
// scripted strategies ride the hot path at full speed.
func TestEvaluatorScriptedQueriesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	prog, err := program.Compile(strategy.CyclicScript)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prog.New(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(inst, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.ExactRatio(ctx, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("scripted ExactRatio allocated %.1f objects per run, want 0", allocs)
	}
}

// TestEvaluatorValidation: constructor and per-query validation carry
// the package's sentinel errors.
func TestEvaluatorValidation(t *testing.T) {
	if _, err := NewEvaluator(nil, 10); !errors.Is(err, ErrBadParams) {
		t.Error("nil strategy should fail")
	}
	s := strategy.Doubling()
	if _, err := NewEvaluator(s, 1); !errors.Is(err, ErrBadParams) {
		t.Error("horizon <= 1 should fail")
	}
	e, err := NewEvaluator(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.ExactRatio(ctx, 1); !errors.Is(err, ErrBadParams) {
		t.Error("faults >= robots should fail")
	}
	if _, err := e.ExactRatio(ctx, -1); !errors.Is(err, ErrBadParams) {
		t.Error("negative faults should fail")
	}
	if _, err := e.FRange(ctx, 1); !errors.Is(err, ErrBadParams) {
		t.Error("FRange maxF >= robots should fail")
	}
	if _, err := e.GridRatio(ctx, 0, 1); !errors.Is(err, ErrBadParams) {
		t.Error("grid n < 2 should fail")
	}
	if eval, err := e.ExactRatio(ctx, 0); err != nil || eval.Breakpoints == 0 {
		t.Errorf("ExactRatio = %+v, %v; want a nonempty candidate set", eval, err)
	}
}

// TestEvaluatorCancellation: a cancelled context aborts both the
// per-f and the FRange walks.
func TestEvaluatorCancellation(t *testing.T) {
	s, err := strategy.NewCyclicExponential(2, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(s, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExactRatio(ctx, 7); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ExactRatio = %v", err)
	}
	if _, err := e.FRange(ctx, 7); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled FRange = %v", err)
	}
	if _, err := e.GridRatio(ctx, 7, 1000); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled GridRatio = %v", err)
	}
}

// TestFRangeUncoveredFaultCount: asking for more faults than the
// strategy's coverage supports reports ErrUncovered rather than
// returning garbage. Robot 1 never enters ray 2, so with one crash the
// ray-2 targets are unreachable.
func TestFRangeUncoveredFaultCount(t *testing.T) {
	s, err := strategy.NewFixedRounds("one-armed", 2, [][]trajectory.Round{
		{{Ray: 1, Turn: 200}, {Ray: 2, Turn: 300}},
		{{Ray: 1, Turn: 250}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.FRange(context.Background(), 1); !errors.Is(err, ErrUncovered) {
		t.Errorf("over-budget FRange = %v, want ErrUncovered", err)
	}
	if _, err := e.ExactRatio(context.Background(), 1); !errors.Is(err, ErrUncovered) {
		t.Errorf("over-budget ExactRatio = %v, want ErrUncovered", err)
	}
	// Fault-free the same strategy is fine: robot 0 covers both rays.
	if _, err := e.FRange(context.Background(), 0); err != nil {
		t.Errorf("fault-free FRange on the same evaluator = %v", err)
	}
}
