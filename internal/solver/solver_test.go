package solver

import (
	"context"
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/pfaulty"
	"repro/internal/strategy"
)

// theorem1Grid returns the line-case (m = 2) search-regime pairs of
// Theorem 1: f < k < 2(f+1), f up to 24.
func theorem1Grid() [][2]int {
	var grid [][2]int
	for f := 0; f <= 24; f++ {
		for k := f + 1; k < 2*(f+1); k++ {
			grid = append(grid, [2]int{k, f})
		}
	}
	return grid
}

// searchTriples returns n distinct search-regime (m, k, f) triples.
func searchTriples(n int) [][3]int {
	var out [][3]int
	for m := 2; ; m++ {
		for f := 0; f <= 8; f++ {
			for k := f + 1; k < m*(f+1); k++ {
				if len(out) == n {
					return out
				}
				out = append(out, [3]int{m, k, f})
			}
		}
	}
}

// TestAlphaStarOrderIndependent: two solvers fed the Theorem-1 grid in
// opposite orders must memoize strategies with identical alpha* bits —
// exactly the closed-form bits every fingerprint and cache key embeds.
func TestAlphaStarOrderIndependent(t *testing.T) {
	grid := theorem1Grid()
	fwd, bwd := New(), New()
	got := make(map[[2]int]float64, len(grid))
	for _, kf := range grid {
		st, err := fwd.Strategy(2, kf[0], kf[1])
		if err != nil {
			t.Fatalf("forward Strategy(2, %d, %d): %v", kf[0], kf[1], err)
		}
		got[kf] = st.Alpha()
	}
	for i := len(grid) - 1; i >= 0; i-- {
		kf := grid[i]
		st, err := bwd.Strategy(2, kf[0], kf[1])
		if err != nil {
			t.Fatalf("backward Strategy(2, %d, %d): %v", kf[0], kf[1], err)
		}
		a := st.Alpha()
		if a != got[kf] {
			t.Fatalf("k=%d f=%d: forward-order alpha %x != backward-order alpha %x", kf[0], kf[1], got[kf], a)
		}
		closed, err := bounds.OptimalAlpha(2*(kf[1]+1), kf[0])
		if err != nil {
			t.Fatal(err)
		}
		if a != closed {
			t.Fatalf("k=%d f=%d: memoized alpha %x != closed form %x", kf[0], kf[1], a, closed)
		}
	}
}

// TestAlphaStarDomainErrors: parameters outside the search regime fail
// and leave nothing in the memo.
func TestAlphaStarDomainErrors(t *testing.T) {
	s := New()
	for _, mkf := range [][3]int{{1, 1, 0}, {2, 0, 0}, {2, 4, 1}, {0, 1, 0}, {2, 1, -1}} {
		if _, err := s.Strategy(mkf[0], mkf[1], mkf[2]); err == nil {
			t.Fatalf("Strategy(%v) succeeded, want domain error", mkf)
		}
	}
	if st := s.Stats(); st.StrategySize != 0 || st.StrategyMisses != 0 {
		t.Fatalf("failed lookups left size %d, misses %d; want 0, 0", st.StrategySize, st.StrategyMisses)
	}
}

// TestStrategyMemoized: the memoized strategy is the constructor's (same
// alpha bits, same name) and repeated lookups share one instance.
func TestStrategyMemoized(t *testing.T) {
	s := New()
	st1, err := s.Strategy(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Strategy(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("repeated Strategy lookups returned distinct instances")
	}
	ref, err := strategy.NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Alpha() != ref.Alpha() || st1.Name() != ref.Name() {
		t.Fatalf("memoized strategy %s (alpha %x) differs from constructor %s (alpha %x)",
			st1.Name(), st1.Alpha(), ref.Name(), ref.Alpha())
	}
	if _, err := s.Strategy(2, 4, 1); err == nil {
		t.Fatal("Strategy(2,4,1) succeeded, want out-of-regime error")
	}
	stats := s.Stats()
	if stats.StrategyHits != 1 || stats.StrategyMisses != 1 || stats.StrategySize != 1 {
		t.Fatalf("strategy hit/miss/size = %d/%d/%d, want 1/1/1",
			stats.StrategyHits, stats.StrategyMisses, stats.StrategySize)
	}
}

// TestStrategyMemoCapped: cap+N distinct cells leave the memo at its
// cap; a cell past the cap is still answered correctly, and the
// resident cells keep sharing one pointer.
func TestStrategyMemoCapped(t *testing.T) {
	s := New()
	cells := searchTriples(strategyCapacity + 16)
	for _, c := range cells {
		st, err := s.Strategy(c[0], c[1], c[2])
		if err != nil {
			t.Fatalf("Strategy(%v): %v", c, err)
		}
		closed, err := bounds.OptimalAlpha(c[0]*(c[2]+1), c[1])
		if err != nil {
			t.Fatal(err)
		}
		if st.Alpha() != closed {
			t.Fatalf("Strategy(%v) alpha %x, closed form %x", c, st.Alpha(), closed)
		}
	}
	if size := s.Stats().StrategySize; size != strategyCapacity {
		t.Fatalf("strategy memo size %d after %d cells, want the cap %d", size, len(cells), strategyCapacity)
	}
	first, _ := s.Strategy(cells[0][0], cells[0][1], cells[0][2])
	again, _ := s.Strategy(cells[0][0], cells[0][1], cells[0][2])
	if first != again {
		t.Fatal("resident cell no longer shares one instance")
	}
}

// TestPFaultyBaseMemoized: the memoized pair matches pfaulty.OptimalBase
// and the second lookup is a hit.
func TestPFaultyBaseMemoized(t *testing.T) {
	s := New()
	base, worst, err := s.PFaultyBase(0.25)
	if err != nil {
		t.Fatal(err)
	}
	rb, rw, err := pfaulty.OptimalBase(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if base != rb || worst != rw {
		t.Fatalf("PFaultyBase(0.25) = (%x, %x), reference (%x, %x)", base, worst, rb, rw)
	}
	if _, _, err := s.PFaultyBase(0.25); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.BaseHits != 1 || stats.BaseMisses != 1 || stats.BaseSize != 1 {
		t.Fatalf("base hit/miss/size = %d/%d/%d, want 1/1/1", stats.BaseHits, stats.BaseMisses, stats.BaseSize)
	}
}

// TestBaseMemoCapped: cap+N distinct probabilities leave the memo at
// its cap, and every answer, memoized or not, equals
// pfaulty.OptimalBase.
func TestBaseMemoCapped(t *testing.T) {
	s := New()
	n := baseCapacity + 16
	for i := 0; i < n; i++ {
		p := 0.05 + 0.45*float64(i)/float64(n)
		base, worst, err := s.PFaultyBase(p)
		if err != nil {
			t.Fatalf("PFaultyBase(%v): %v", p, err)
		}
		rb, rw, err := pfaulty.OptimalBase(p)
		if err != nil {
			t.Fatal(err)
		}
		if base != rb || worst != rw {
			t.Fatalf("PFaultyBase(%v) = (%x, %x), reference (%x, %x)", p, base, worst, rb, rw)
		}
	}
	stats := s.Stats()
	if stats.BaseSize != baseCapacity || stats.BaseMisses != int64(n) {
		t.Fatalf("base memo size %d after %d misses, want the cap %d after %d",
			stats.BaseSize, stats.BaseMisses, baseCapacity, n)
	}
}

// TestContextPlumbing: With/From round-trips a solver; From without one
// falls back to Shared and never returns nil.
func TestContextPlumbing(t *testing.T) {
	s := New()
	ctx := With(context.Background(), s)
	if got := From(ctx); got != s {
		t.Fatal("From did not return the injected solver")
	}
	if got := From(context.Background()); got != Shared() {
		t.Fatal("From without injection did not return Shared")
	}
	if Shared() == nil {
		t.Fatal("Shared returned nil")
	}
}

// TestExportImportRoundTrip warms a solver, exports its memo, imports
// it into a fresh solver, and checks the fresh solver serves the same
// bases without re-solving.
func TestExportImportRoundTrip(t *testing.T) {
	warm := New()
	if _, err := warm.Strategy(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	wantBase, wantWorst, err := warm.PFaultyBase(0.25)
	if err != nil {
		t.Fatal(err)
	}

	memo := warm.Export()
	if got := len(memo.Bases); got != 1 {
		t.Fatalf("Export() carries %d bases, want 1", got)
	}

	cold := New()
	if got := cold.Import(memo); got != 1 {
		t.Fatalf("Import = %d entries, want 1", got)
	}
	if st := cold.Stats(); st.BaseHits != 0 || st.BaseMisses != 0 {
		t.Fatalf("import advanced counters: %+v", st)
	}
	base, worst, err := cold.PFaultyBase(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if base != wantBase || worst != wantWorst {
		t.Errorf("imported base = (%v, %v), want (%v, %v)", base, worst, wantBase, wantWorst)
	}
	if st := cold.Stats(); st.BaseHits != 1 || st.BaseMisses != 0 {
		t.Errorf("imported base hit/miss = %d/%d, want 1/0", st.BaseHits, st.BaseMisses)
	}
}

// TestExportDeterministicOrder pins the export's sort order: two
// exports of equally-warmed solvers must be identical (snapshots diff
// cleanly).
func TestExportDeterministicOrder(t *testing.T) {
	build := func(ps []float64) Memo {
		s := New()
		for _, p := range ps {
			if _, _, err := s.PFaultyBase(p); err != nil {
				t.Fatal(err)
			}
		}
		return s.Export()
	}
	a := build([]float64{0.25, 0.1, 0.4})
	b := build([]float64{0.4, 0.25, 0.1})
	if len(a.Bases) != 3 || len(b.Bases) != 3 {
		t.Fatalf("exports carry %d/%d bases, want 3", len(a.Bases), len(b.Bases))
	}
	for i := range a.Bases {
		if a.Bases[i] != b.Bases[i] {
			t.Errorf("base order differs at %d: %+v vs %+v", i, a.Bases[i], b.Bases[i])
		}
	}
}

// TestImportSkipsInvalidEntries feeds a memo full of garbage: nothing
// may land, and nothing may error (snapshots are best-effort).
func TestImportSkipsInvalidEntries(t *testing.T) {
	s := New()
	got := s.Import(Memo{
		Bases: []BaseMemo{{P: 1.5, Base: 3, Worst: 5}, {P: 0.25, Base: 0.5, Worst: 5}, {P: 0.25, Base: 3, Worst: math.Inf(1)}},
	})
	if got != 0 {
		t.Errorf("Import accepted %d invalid entries", got)
	}
	if n := len(s.Export().Bases); n != 0 {
		t.Errorf("invalid import left %d entries resident", n)
	}
}

// TestImportObeysCap: an import larger than the base memo's capacity
// fills it to the cap and no further.
func TestImportObeysCap(t *testing.T) {
	n := baseCapacity + 16
	var m Memo
	for i := 0; i < n; i++ {
		m.Bases = append(m.Bases, BaseMemo{P: float64(i+1) / float64(n+1), Base: 3, Worst: 5})
	}
	s := New()
	if got := s.Import(m); got != baseCapacity {
		t.Fatalf("Import landed %d entries, want the cap %d", got, baseCapacity)
	}
	if size := s.Stats().BaseSize; size != baseCapacity {
		t.Fatalf("base memo size %d after import, want the cap %d", size, baseCapacity)
	}
}

// TestImportDoesNotClobber warms a key, then imports a memo naming the
// same key: the resident value must win.
func TestImportDoesNotClobber(t *testing.T) {
	s := New()
	want, _, err := s.PFaultyBase(0.25)
	if err != nil {
		t.Fatal(err)
	}
	s.Import(Memo{Bases: []BaseMemo{{P: 0.25, Base: want + 1, Worst: 99}}})
	got, _, err := s.PFaultyBase(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("import clobbered resident base: %v -> %v", want, got)
	}
}
