// oracle_test.go checks the kernel against an independent reference: the
// adversary computed straight from the package doc, with no state
// carried from one candidate point to the next, over visit tables and
// breakpoints built the naive way (visitTables, breakpointSlice). The other kernel tests
// compare the kernel's own paths with each other (Evaluator vs package
// functions, FRange vs per-f queries, pooled vs reference build), so a bug
// those paths share passes them all; this one does not.
package adversary

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// oracleGridPoints is the sample count of the GridRatio comparisons.
const oracleGridPoints = 97

// visitTables builds, for each ray and robot, the increasing (turn, offset)
// table of first-reaching excursions. It is the reference construction
// the pooled arena build (pool.go) must reproduce bit-for-bit.
func visitTables(s strategy.Strategy, horizon float64) ([][][]rayVisit, error) {
	m, k := s.M(), s.K()
	tables := make([][][]rayVisit, m+1) // 1-based rays
	for ray := 1; ray <= m; ray++ {
		tables[ray] = make([][]rayVisit, k)
	}
	for r := 0; r < k; r++ {
		rounds, err := s.AppendRounds(nil, r, horizon)
		if err != nil {
			return nil, fmt.Errorf("adversary: robot %d: %w", r, err)
		}
		maxTurn := make([]float64, m+1)
		prefix := 0.0
		for _, rd := range rounds {
			if rd.Turn > maxTurn[rd.Ray] {
				maxTurn[rd.Ray] = rd.Turn
				tables[rd.Ray][r] = append(tables[rd.Ray][r], rayVisit{
					Turn:   rd.Turn,
					Offset: 2 * prefix,
				})
			}
			prefix += rd.Turn
		}
	}
	return tables, nil
}

// breakpointSlice flattens one ray's candidate points — x = 1 plus
// every turning point in [1, horizon) — into a sorted, deduplicated
// slice: the x sequence the kernel's breakpoint walk must visit.
func breakpointSlice(tables [][]rayVisit, horizon float64) []float64 {
	out := []float64{1}
	for _, table := range tables {
		for _, v := range table {
			if v.Turn >= 1 && v.Turn < horizon {
				out = append(out, v.Turn)
			}
		}
	}
	sort.Float64s(out)
	return slices.Compact(out)
}

// naiveOffsets fills att and lim with every robot's arrival offsets at
// x on one ray, each by its own binary search: att[r] is the offset of
// robot r's first visit with Turn >= x, lim[r] of its first visit with
// Turn > x, +Inf when there is none. Both come back fully sorted.
func naiveOffsets(tables [][]rayVisit, x float64, att, lim []float64) {
	for r, tb := range tables {
		att[r], lim[r] = math.Inf(1), math.Inf(1)
		if i := sort.Search(len(tb), func(i int) bool { return tb[i].Turn >= x }); i < len(tb) {
			att[r] = tb[i].Offset
		}
		if i := sort.Search(len(tb), func(i int) bool { return tb[i].Turn > x }); i < len(tb) {
			lim[r] = tb[i].Offset
		}
	}
	sort.Float64s(att)
	sort.Float64s(lim)
}

// naiveExact is ExactRatio from the package doc: on every ray, at x = 1
// and at every turning point in [1, horizon) (the reference
// visitTables and breakpointSlice), the detection offset against f
// crashes is element f of the sorted attained offsets, and of the
// sorted right-limit offsets for the supremum approached from above.
func naiveExact(t *testing.T, s strategy.Strategy, f int, horizon float64) (Evaluation, error) {
	t.Helper()
	tables, err := visitTables(s, horizon)
	if err != nil {
		t.Fatalf("visitTables(%s, %g): %v", s.Name(), horizon, err)
	}
	att, lim := make([]float64, s.K()), make([]float64, s.K())
	eval := Evaluation{WorstRatio: -1}
	for ray := 1; ray <= s.M(); ray++ {
		for _, x := range breakpointSlice(tables[ray], horizon) {
			eval.Breakpoints++
			naiveOffsets(tables[ray], x, att, lim)
			if math.IsInf(att[f], 1) {
				return Evaluation{}, fmt.Errorf("%w: ray %d, x = %g", ErrUncovered, ray, x)
			}
			if ratio := (att[f] + x) / x; ratio > eval.WorstRatio {
				eval = Evaluation{WorstRatio: ratio, WorstRay: ray, WorstX: x, Attained: true, Breakpoints: eval.Breakpoints}
			}
			if math.IsInf(lim[f], 1) {
				continue
			}
			if ratio := (lim[f] + x) / x; ratio > eval.WorstRatio {
				eval = Evaluation{WorstRatio: ratio, WorstRay: ray, WorstX: x, Attained: false, Breakpoints: eval.Breakpoints}
			}
		}
	}
	return eval, nil
}

// naiveGrid is GridRatio from its doc: n log-spaced targets per ray in
// [1, horizon), each read off the sorted attained offsets.
func naiveGrid(t *testing.T, s strategy.Strategy, f int, horizon float64, n int) (float64, error) {
	t.Helper()
	tables, err := visitTables(s, horizon)
	if err != nil {
		t.Fatalf("visitTables(%s, %g): %v", s.Name(), horizon, err)
	}
	att, lim := make([]float64, s.K()), make([]float64, s.K())
	logH := math.Log(horizon)
	worst := 0.0
	for ray := 1; ray <= s.M(); ray++ {
		for i := 0; i < n; i++ {
			x := math.Exp(logH * float64(i) / float64(n-1))
			if x >= horizon {
				x = horizon * (1 - 1e-12)
			}
			naiveOffsets(tables[ray], x, att, lim)
			if math.IsInf(att[f], 1) {
				return 0, fmt.Errorf("%w: ray %d, x = %g", ErrUncovered, ray, x)
			}
			if ratio := (att[f] + x) / x; ratio > worst {
				worst = ratio
			}
		}
	}
	return worst, nil
}

// sameOutcome fails the test unless the kernel and the reference agree:
// both succeed with equal answers, or both fail with the same
// ErrUncovered message.
func sameOutcome[T comparable](t *testing.T, label string, got T, gerr error, want T, werr error) {
	t.Helper()
	switch {
	case werr != nil:
		if !errors.Is(werr, ErrUncovered) {
			t.Fatalf("%s: reference failed with %v", label, werr)
		}
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%s: kernel returned %+v, %v; reference %v", label, got, gerr, werr)
		}
	case gerr != nil:
		t.Fatalf("%s: kernel failed with %v; reference %+v", label, gerr, want)
	case got != want:
		t.Fatalf("%s: kernel %+v, reference %+v", label, got, want)
	}
}

// checkEvaluator compares every query of e, built for s at horizon h —
// ExactRatio, FRange for every fault count up to f, GridRatio — with
// the reference.
func checkEvaluator(t *testing.T, label string, e *Evaluator, s strategy.Strategy, h float64, f int) {
	t.Helper()
	ctx := context.Background()
	label = fmt.Sprintf("%s h=%g f=%d", label, h, f)

	got, gerr := e.ExactRatio(ctx, f)
	want, werr := naiveExact(t, s, f, h)
	sameOutcome(t, label+" ExactRatio", got, gerr, want, werr)

	evals, ferr := e.FRange(ctx, f)
	if werr != nil {
		// Sorted offsets go infinite from the top: a fault count up to
		// f is uncovered exactly where f itself is.
		if !errors.Is(ferr, ErrUncovered) {
			t.Fatalf("%s FRange: %v, want ErrUncovered", label, ferr)
		}
	} else {
		if ferr != nil {
			t.Fatalf("%s FRange: %v", label, ferr)
		}
		for g := 0; g <= f; g++ {
			want, werr := naiveExact(t, s, g, h)
			sameOutcome(t, fmt.Sprintf("%s FRange[%d]", label, g), evals[g], nil, want, werr)
		}
	}

	grid, gerr := e.GridRatio(ctx, f, oracleGridPoints)
	wantGrid, werr := naiveGrid(t, s, f, h, oracleGridPoints)
	sameOutcome(t, label+" GridRatio", grid, gerr, wantGrid, werr)
}

// checkAgainstReference checks s at fault count f on a fresh evaluator
// per horizon.
func checkAgainstReference(t *testing.T, s strategy.Strategy, f int, horizons []float64) {
	t.Helper()
	for _, h := range horizons {
		e, err := NewEvaluator(s, h)
		if err != nil {
			t.Fatalf("NewEvaluator(%s, %g): %v", s.Name(), h, err)
		}
		checkEvaluator(t, s.Name(), e, s, h, f)
		e.Release()
	}
}

// doublingRounds returns excursions whose turns double from first,
// cycling through the m rays from ray0, up to a turn of 1e10 — past
// the largest test horizon on every ray.
func doublingRounds(m, ray0 int, first float64) []trajectory.Round {
	var out []trajectory.Round
	for turn, ray := first, ray0; turn < 1e10; turn, ray = turn*2, ray%m+1 {
		out = append(out, trajectory.Round{Ray: ray, Turn: turn})
	}
	return out
}

// TestKernelMatchesNaiveReference is the independent oracle: every
// search-regime cell with m <= 4 and k <= 12 (f < k < m(f+1); the
// half-line, m = 1, has none), at every horizon, plus FixedRounds
// strategies whose robots share turning points — several events at one
// breakpoint — and start below 1, must match the reference exactly.
func TestKernelMatchesNaiveReference(t *testing.T) {
	horizons := []float64{3, 1e2, 1e4, 3.7e5, 1e8}
	cells := 0
	for m := 1; m <= 4; m++ {
		for k := 1; k <= 12; k++ {
			for f := 0; f < k; f++ {
				if k >= m*(f+1) {
					continue
				}
				s, err := strategy.NewCyclicExponential(m, k, f)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, s, f, horizons)
				cells++
			}
		}
	}
	if cells != 161 {
		t.Fatalf("checked %d search-regime cells, want 161", cells)
	}

	shared := []struct {
		name   string
		m, f   int
		robots [][]trajectory.Round
	}{
		// Two identical robots: every event of one coincides with one of
		// the other's.
		{"halfline-twins", 1, 1, [][]trajectory.Round{
			doublingRounds(1, 1, 0.25), doublingRounds(1, 1, 0.25), doublingRounds(1, 1, 0.5),
		}},
		// Doubling across two rays from 0.25 and from 1 puts the same
		// turns on the same rays (4x per ray), so robots 0 and 2 share
		// every turn at or above 1.
		{"two-rays-shared", 2, 1, [][]trajectory.Round{
			doublingRounds(2, 1, 0.25), doublingRounds(2, 2, 0.5), doublingRounds(2, 1, 1), doublingRounds(2, 2, 0.125),
		}},
		{"three-rays-shared", 3, 2, [][]trajectory.Round{
			doublingRounds(3, 1, 0.125), doublingRounds(3, 2, 0.25), doublingRounds(3, 3, 0.5),
			doublingRounds(3, 1, 1), doublingRounds(3, 2, 2), doublingRounds(3, 1, 0.125),
		}},
		// Robot 0's first turns on each ray come before the other
		// robots' pending visits there, and its turn 3 on ray 1 ties
		// robot 1's, so the merge inserts robot 0's next visit at the
		// front of its ring, ahead of a higher robot index on a tie.
		{"front-insert", 2, 1, [][]trajectory.Round{
			append([]trajectory.Round{{Ray: 1, Turn: 1.25}, {Ray: 1, Turn: 1.5}, {Ray: 1, Turn: 2}, {Ray: 1, Turn: 3},
				{Ray: 2, Turn: 1.25}, {Ray: 2, Turn: 1.75}}, doublingRounds(2, 1, 4)...),
			doublingRounds(2, 1, 3), doublingRounds(2, 2, 5),
		}},
		// Robot 1 never enters ray 2: with one crash ray 2 is uncovered,
		// and both sides must say so at the same point.
		{"one-armed", 2, 1, [][]trajectory.Round{
			doublingRounds(2, 1, 0.5), doublingRounds(1, 1, 0.75),
		}},
	}
	for _, c := range shared {
		s, err := strategy.NewFixedRounds(c.name, c.m, c.robots)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, s, c.f, horizons)
	}
}

// fuzzTurns are the turning points fuzzed strategies draw from: a small
// set, so robots share turns, with values below 1, at 1, and equal to
// some fuzzed horizons.
var fuzzTurns = [16]float64{0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 100, 128}

// fuzzHorizons are the horizons fuzzed strategies are evaluated at.
var fuzzHorizons = [8]float64{1.5, 2, 3, 7.5, 16, 50, 100, 1e3}

// FuzzExactRatioMatchesReference turns fuzz bytes into a FixedRounds
// strategy — scripted strategies arrive from users, so the kernel must
// hold for arbitrary round lists, not just the cyclic family — and
// checks the kernel against the reference on it: byte 0 picks m <= 4,
// byte 1 k <= 6, byte 2 the fault count, byte 3 the horizon, and every
// later pair of bytes one round (robot; ray and turn). The evaluator is
// checked fresh at the smallest fuzzed horizon and at the drawn one.
//
// CI runs this for a short -fuzztime as a smoke gate; `go test -fuzz
// FuzzExactRatioMatchesReference ./internal/adversary` explores further.
func FuzzExactRatioMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 1, 4, 0, 0x02, 1, 0x14, 0, 0x17, 1, 0x0a, 0, 0x1d, 1, 0x0f, 2, 0x24})
	f.Add([]byte{0, 1, 0, 7, 0, 0x00, 1, 0x01, 0, 0x04, 1, 0x04, 0, 0x08, 1, 0x0c, 0, 0x0f})
	f.Add([]byte{3, 5, 2, 6, 0, 0x01, 1, 0x11, 2, 0x22, 3, 0x33, 4, 0x03, 5, 0x12, 0, 0x2e, 1, 0x3e, 2, 0x0f})
	f.Add([]byte{2, 3, 3, 2, 0, 0x02, 1, 0x02, 2, 0x02, 3, 0x12, 0, 0x26, 1, 0x29})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m, k := 1+int(data[0])%4, 1+int(data[1])%6
		faults, h := int(data[2])%k, fuzzHorizons[int(data[3])%len(fuzzHorizons)]
		robots := make([][]trajectory.Round, k)
		rounds := data[4:]
		if len(rounds) > 128 {
			rounds = rounds[:128]
		}
		for i := 0; i+1 < len(rounds); i += 2 {
			r := int(rounds[i]) % k
			robots[r] = append(robots[r], trajectory.Round{
				Ray:  1 + int(rounds[i+1]>>4)%m,
				Turn: fuzzTurns[rounds[i+1]&15],
			})
		}
		s, err := strategy.NewFixedRounds("fuzz", m, robots)
		if err != nil {
			t.Fatalf("NewFixedRounds rejected positive turns on valid rays: %v", err)
		}
		horizons := []float64{h}
		if h > fuzzHorizons[0] {
			horizons = []float64{fuzzHorizons[0], h}
		}
		checkAgainstReference(t, s, faults, horizons)
	})
}
