// pool_test.go pins the amortization layer of the kernel: the pooled
// arena build must be bit-for-bit identical to the reference
// construction (visitTables + breakpointSlice), recycled arenas
// included, and a steady-state build must allocate nothing.
package adversary

import (
	"context"
	"testing"

	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// referenceEvaluator builds the tables and breakpoints through the
// reference path, bypassing the arena build.
func referenceEvaluator(t *testing.T, s strategy.Strategy, horizon float64) ([][][]rayVisit, [][]float64) {
	t.Helper()
	tables, err := visitTables(s, horizon)
	if err != nil {
		t.Fatalf("visitTables(%s, %g): %v", s.Name(), horizon, err)
	}
	m := s.M()
	breaks := make([][]float64, m+1)
	for ray := 1; ray <= m; ray++ {
		breaks[ray] = breakpointSlice(tables[ray], horizon)
	}
	return tables, breaks
}

// walkBreakpoints returns, per ray, the x sequence of e's candidate
// walk.
func walkBreakpoints(e *Evaluator) [][]float64 {
	xs := make([][]float64, e.m+1)
	var c Candidate
	for e.ResetSweep(); e.NextCandidate(&c); {
		xs[c.Ray] = append(xs[c.Ray], c.X)
	}
	return xs
}

// requireSameShape compares an evaluator's tables and the x sequence of
// its candidate walk against a reference, element by element with
// exact float equality.
func requireSameShape(t *testing.T, label string, e *Evaluator, tables [][][]rayVisit, breaks [][]float64) {
	t.Helper()
	walked := walkBreakpoints(e)
	if len(e.tables) != len(tables) {
		t.Fatalf("%s: %d table rays, reference %d", label, len(e.tables), len(tables))
	}
	for ray := 1; ray < len(tables); ray++ {
		if len(e.tables[ray]) != len(tables[ray]) {
			t.Fatalf("%s: ray %d: %d robots, reference %d", label, ray, len(e.tables[ray]), len(tables[ray]))
		}
		for r := range tables[ray] {
			got, want := e.tables[ray][r], tables[ray][r]
			if len(got) != len(want) {
				t.Fatalf("%s: ray %d robot %d: %d visits, reference %d", label, ray, r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: ray %d robot %d visit %d: got %+v, reference %+v", label, ray, r, i, got[i], want[i])
				}
			}
		}
		gb, wb := walked[ray], breaks[ray]
		if len(gb) != len(wb) {
			t.Fatalf("%s: ray %d: %d breakpoints, reference %d", label, ray, len(gb), len(wb))
		}
		for i := range wb {
			if gb[i] != wb[i] {
				t.Fatalf("%s: ray %d breakpoint %d: got %g, reference %g", label, ray, i, gb[i], wb[i])
			}
		}
	}
}

// testStrategies returns a diverse strategy set: cyclic exponentials
// across the regime, the ray-split baseline, and a FixedRounds list
// (whose AppendRounds ignores the horizon, so its tables overshoot it).
func testStrategies(t *testing.T) []strategy.Strategy {
	t.Helper()
	var out []strategy.Strategy
	for _, p := range [][3]int{{2, 1, 0}, {2, 3, 1}, {2, 5, 2}, {3, 2, 0}, {3, 4, 1}, {4, 3, 0}, {5, 7, 2}} {
		s, err := strategy.NewCyclicExponential(p[0], p[1], p[2])
		if err != nil {
			t.Fatalf("NewCyclicExponential(%v): %v", p, err)
		}
		out = append(out, s)
	}
	rs, err := strategy.NewRaySplit(5, 2)
	if err != nil {
		t.Fatalf("NewRaySplit: %v", err)
	}
	out = append(out, rs)
	fr, err := strategy.NewFixedRounds("fixed", 2, [][]trajectory.Round{
		{{Ray: 1, Turn: 1.5}, {Ray: 2, Turn: 2}, {Ray: 1, Turn: 4}, {Ray: 2, Turn: 9}, {Ray: 1, Turn: 30}, {Ray: 2, Turn: 80}},
		{{Ray: 2, Turn: 1.2}, {Ray: 1, Turn: 3}, {Ray: 2, Turn: 7}, {Ray: 1, Turn: 25}, {Ray: 2, Turn: 90}},
	})
	if err != nil {
		t.Fatalf("NewFixedRounds: %v", err)
	}
	out = append(out, fr)
	return out
}

// TestPooledBuildMatchesReference: the arena build must reproduce the
// reference construction exactly, including on recycled evaluators.
func TestPooledBuildMatchesReference(t *testing.T) {
	for _, s := range testStrategies(t) {
		for _, horizon := range []float64{1.5, 10, 123.4, 5e3} {
			tables, breaks := referenceEvaluator(t, s, horizon)
			// Twice: the second build recycles the first's arena.
			for round := 0; round < 2; round++ {
				e, err := NewEvaluator(s, horizon)
				if err != nil {
					t.Fatalf("NewEvaluator(%s, %g): %v", s.Name(), horizon, err)
				}
				requireSameShape(t, s.Name(), e, tables, breaks)
				e.Release()
			}
		}
	}
}

// TestKernelCountersMove: builds and pool reuses must be observable
// through ReadKernelStats.
func TestKernelCountersMove(t *testing.T) {
	s, err := strategy.NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := ReadKernelStats()
	e, err := NewEvaluator(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	e2, err := NewEvaluator(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	e2.Release()
	after := ReadKernelStats()
	if after.Builds <= before.Builds {
		t.Errorf("Builds did not advance: %d -> %d", before.Builds, after.Builds)
	}
	// Pool reuse is best-effort (a GC can empty the pool), so only
	// check it never goes backwards.
	if after.PoolReuses < before.PoolReuses {
		t.Errorf("PoolReuses went backwards: %d -> %d", before.PoolReuses, after.PoolReuses)
	}
}

// TestPooledBuildAllocationFree: in steady state a build-and-release
// cycle allocates nothing — the arena supplies every buffer. Skipped
// under the race detector, whose sync.Pool deliberately drops a
// fraction of Puts.
func TestPooledBuildAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	s, err := strategy.NewCyclicExponential(2, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool and the arena to hot-path capacity.
	for i := 0; i < 4; i++ {
		e, err := NewEvaluator(s, 1e4)
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	allocs := testing.AllocsPerRun(50, func() {
		e, err := NewEvaluator(s, 1e4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ExactRatio(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
		e.Release()
	})
	if allocs != 0 {
		t.Fatalf("pooled build+query+release allocated %.1f times per run, want 0", allocs)
	}
}
