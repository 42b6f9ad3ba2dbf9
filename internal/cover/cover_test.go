package cover

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/numeric"
	"repro/internal/strategy"
)

func TestMu(t *testing.T) {
	got, err := Mu(9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("Mu(9) = %g, want 4", got)
	}
	if _, err := Mu(1); !errors.Is(err, ErrBadLambda) {
		t.Error("Mu(1) should fail")
	}
	if _, err := Mu(math.NaN()); !errors.Is(err, ErrBadLambda) {
		t.Error("Mu(NaN) should fail")
	}
}

func TestSymmetricCovIntervalsDoublingAtNine(t *testing.T) {
	// The cow-path doubling at lambda = 9 (mu = 4) covers (0, inf) in
	// contiguous single-multiplicity intervals [t_{i-1}, t_i]: the paper's
	// tightness at rho = 2.
	turns := []float64{1, 2, 4, 8, 16, 32}
	ivs, err := SymmetricCovIntervals(0, turns, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != len(turns) {
		t.Fatalf("got %d intervals, want %d (all fruitful)", len(ivs), len(turns))
	}
	// First interval: t''_1 = S_1/4 = 0.25.
	if !numeric.EqualWithin(ivs[0].Lo, 0.25, 1e-12) || ivs[0].Hi != 1 {
		t.Errorf("interval 1 = [%g, %g], want [0.25, 1]", ivs[0].Lo, ivs[0].Hi)
	}
	// Subsequent: t''_i = t_{i-1} exactly (the prefix-sum bound equals the
	// previous turn at the critical ratio... S_i/4 vs t_{i-1}).
	for i := 1; i < len(ivs); i++ {
		if !numeric.EqualWithin(ivs[i].Lo, turns[i-1], 1e-12) {
			t.Errorf("interval %d Lo = %g, want %g", i+1, ivs[i].Lo, turns[i-1])
		}
		if ivs[i].Hi != turns[i] {
			t.Errorf("interval %d Hi = %g, want %g", i+1, ivs[i].Hi, turns[i])
		}
	}
}

func TestSymmetricCovIntervalsNotFruitfulBelowNine(t *testing.T) {
	// Below lambda = 9 the doubling strategy develops gaps: some interval
	// must shrink past its turning point or leave uncovered space.
	turns := []float64{1, 2, 4, 8, 16, 32, 64, 128}
	ivs, err := SymmetricCovIntervals(0, turns, 8.2)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Multiplicity(ivs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if gap, found := prof.FirstBelow(1); !found {
		t.Error("doubling at lambda = 8.2 should have a coverage gap")
	} else if gap <= 1 {
		t.Errorf("gap location %g should be beyond 1", gap)
	}
}

func TestSymmetricCovIntervalsValidation(t *testing.T) {
	if _, err := SymmetricCovIntervals(0, []float64{1, -1}, 9); !errors.Is(err, ErrBadTurns) {
		t.Error("negative turn should fail")
	}
	if _, err := SymmetricCovIntervals(0, []float64{1}, 0.5); !errors.Is(err, ErrBadLambda) {
		t.Error("bad lambda should fail")
	}
}

func TestORCCovIntervalsClosedForm(t *testing.T) {
	// Round i covers [S_{i-1}/mu, t_i]. With mu = 4 and turns 1, 2, 4:
	// [0, 1], [0.25, 2], [0.75, 4].
	ivs, err := ORCCovIntervals(0, []float64{1, 2, 4}, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ lo, hi float64 }{{0, 1}, {0.25, 2}, {0.75, 4}}
	if len(ivs) != len(want) {
		t.Fatalf("got %d intervals, want %d", len(ivs), len(want))
	}
	for i, w := range want {
		if !numeric.EqualWithin(ivs[i].Lo, w.lo, 1e-12) || !numeric.EqualWithin(ivs[i].Hi, w.hi, 1e-12) {
			t.Errorf("interval %d = [%g, %g], want [%g, %g]", i+1, ivs[i].Lo, ivs[i].Hi, w.lo, w.hi)
		}
	}
}

func TestORCCovIntervalsDropsUnfruitful(t *testing.T) {
	// A tiny round late in the sequence cannot lambda-cover anything:
	// t''_i = S_{i-1}/mu > t_i.
	ivs, err := ORCCovIntervals(0, []float64{10, 20, 0.5, 40}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range ivs {
		if iv.Index == 3 {
			t.Error("round 3 (turn 0.5 after prefix 30, mu = 1) should be unfruitful")
		}
	}
	// Its turn still counts toward later prefix sums: round 4 starts at
	// Lo = (10+20+0.5)/mu = 30.5.
	last := ivs[len(ivs)-1]
	if last.Index != 4 || !numeric.EqualWithin(last.Lo, 30.5, 1e-12) {
		t.Errorf("round 4 Lo = %g, want 30.5", last.Lo)
	}
}

func TestMultiplicityProfile(t *testing.T) {
	ivs := []Interval{
		{Robot: 0, Index: 1, Lo: 1, Hi: 4},
		{Robot: 1, Index: 1, Lo: 2, Hi: 6},
		{Robot: 2, Index: 1, Lo: 3, Hi: 5},
	}
	prof, err := Multiplicity(ivs, 6)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		x    float64
		want int
	}{
		{1.5, 1}, {2.5, 2}, {3.5, 3}, {4.5, 2}, {5.5, 1},
		{4, 3}, // right-closed: x = 4 still covered by [1,4]
	}
	for _, c := range checks {
		if got := prof.MultAt(c.x); got != c.want {
			t.Errorf("MultAt(%g) = %d, want %d", c.x, got, c.want)
		}
	}
	if prof.MinMult() != 1 {
		t.Errorf("MinMult = %d, want 1", prof.MinMult())
	}
	if gap, found := prof.FirstBelow(2); !found || gap != 1 {
		t.Errorf("FirstBelow(2) = %g, %v; want 1, true", gap, found)
	}
	if _, found := prof.FirstBelow(1); found {
		t.Error("profile is everywhere >= 1")
	}
}

func TestMultiplicityEmptyAndErrors(t *testing.T) {
	prof, err := Multiplicity(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if prof.MinMult() != 0 {
		t.Error("empty interval set has multiplicity 0")
	}
	if _, err := Multiplicity(nil, 1); !errors.Is(err, ErrBadTurns) {
		t.Error("upTo = 1 should fail")
	}
	if _, err := Multiplicity(nil, math.Inf(1)); !errors.Is(err, ErrBadTurns) {
		t.Error("infinite upTo should fail")
	}
}

func TestMultiplicityClipsOutOfRange(t *testing.T) {
	ivs := []Interval{
		{Lo: 0.1, Hi: 0.9}, // entirely below 1
		{Lo: 20, Hi: 30},   // entirely beyond upTo
		{Lo: 0.5, Hi: 10},  // spans the whole range
	}
	prof, err := Multiplicity(ivs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Segments) != 1 || prof.Segments[0].Mult != 1 {
		t.Errorf("profile = %+v, want single segment of multiplicity 1", prof.Segments)
	}
}

// lineCoverIntervals extracts symmetric-setting intervals for every robot
// of a cyclic exponential strategy.
func lineCoverIntervals(t *testing.T, s *strategy.CyclicExponential, lambda, horizon float64) []Interval {
	t.Helper()
	var all []Interval
	for r := 0; r < s.K(); r++ {
		turns, err := s.LineTurns(r, horizon)
		if err != nil {
			t.Fatal(err)
		}
		ivs, err := SymmetricCovIntervals(r, turns, lambda)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ivs...)
	}
	return all
}

func TestOptimalStrategyAchievesSFoldCover(t *testing.T) {
	// Theorem 1 direction "upper bound": the optimal strategy's robots
	// s-fold ±-cover R>=1 at lambda0 (up to float slack).
	cases := []struct{ k, f int }{{1, 0}, {3, 1}, {5, 2}, {3, 2}}
	for _, c := range cases {
		s, err := strategy.NewCyclicExponential(2, c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		lambda0, err := bounds.AKF(c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		sFold := bounds.SlackS(c.k, c.f)
		all := lineCoverIntervals(t, s, lambda0*(1+1e-6), 2000)
		prof, err := Multiplicity(all, 500)
		if err != nil {
			t.Fatal(err)
		}
		if got := prof.MinMult(); got < sFold {
			gap, _ := prof.FirstBelow(sFold)
			t.Errorf("k=%d f=%d: min multiplicity %d < s = %d (first gap at %g)",
				c.k, c.f, got, sFold, gap)
		}
	}
}

func TestOptimalStrategyFailsBelowBound(t *testing.T) {
	// Below lambda0 even the optimal strategy cannot s-fold cover: the
	// intervals shrink and gaps open (this is the easy direction; the
	// potential engine proves NO strategy can).
	c := struct{ k, f int }{3, 1}
	s, err := strategy.NewCyclicExponential(2, c.k, c.f)
	if err != nil {
		t.Fatal(err)
	}
	lambda0, err := bounds.AKF(c.k, c.f)
	if err != nil {
		t.Fatal(err)
	}
	all := lineCoverIntervals(t, s, lambda0*0.97, 2000)
	prof, err := Multiplicity(all, 500)
	if err != nil {
		t.Fatal(err)
	}
	if prof.MinMult() >= bounds.SlackS(c.k, c.f) {
		t.Error("coverage below lambda0 should develop a gap for the s-fold requirement")
	}
}

func TestExactAssignmentDoubling(t *testing.T) {
	turns := []float64{1, 2, 4, 8, 16, 32, 64}
	ivs, err := SymmetricCovIntervals(0, turns, 9.05)
	if err != nil {
		t.Fatal(err)
	}
	assigned, err := ExactAssignment(ivs, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAssignment(assigned, 1, 50); err != nil {
		t.Fatal(err)
	}
	// Assignment must be ordered by TPrime and start at 1.
	if assigned[0].TPrime != 1 {
		t.Errorf("first assigned TPrime = %g, want 1", assigned[0].TPrime)
	}
	for i := 1; i < len(assigned); i++ {
		if assigned[i].TPrime < assigned[i-1].TPrime {
			t.Error("assignment not ordered by TPrime")
		}
	}
}

func TestExactAssignmentGapDetection(t *testing.T) {
	ivs := []Interval{
		{Robot: 0, Index: 1, Lo: 1, Hi: 3},
		{Robot: 0, Index: 2, Lo: 5, Hi: 9}, // hole in (3, 5]
	}
	_, err := ExactAssignment(ivs, 1, 9)
	if !errors.Is(err, ErrCoverageGap) {
		t.Errorf("expected ErrCoverageGap, got %v", err)
	}
}

// TestExactAssignmentNestedLaterExcursion: when a robot's turns
// decrease, its later excursion is nested in the earlier one and has the
// earlier deadline. The assignment activates the robot's excursions in
// index order, so the earlier, longer one covers and the nested one
// stays available; retiring the earlier one for the nested one would
// leave (50, 100] uncovered.
func TestExactAssignmentNestedLaterExcursion(t *testing.T) {
	ivs := []Interval{
		{Robot: 0, Index: 1, Lo: 0.5, Hi: 100},
		{Robot: 0, Index: 2, Lo: 0.5, Hi: 50},
	}
	got, err := ExactAssignment(ivs, 1, 100)
	if err != nil {
		t.Fatalf("ExactAssignment: %v", err)
	}
	if len(got) != 1 || got[0].Index != 1 || got[0].Turn != 100 {
		t.Errorf("assignment = %+v, want excursion 1 alone on (1, 100]", got)
	}
	if err := VerifyAssignment(got, 1, 100); err != nil {
		t.Error(err)
	}
	// Twofold, the nested excursion joins the earlier one in index order.
	two := append(ivs, Interval{Robot: 1, Index: 1, Lo: 40, Hi: 100})
	got, err = ExactAssignment(two, 2, 100)
	if err != nil {
		t.Fatalf("twofold ExactAssignment: %v", err)
	}
	if err := VerifyAssignment(got, 2, 100); err != nil {
		t.Error(err)
	}
	if len(got) != 3 || got[0].Index != 1 || got[1].Index != 2 {
		t.Errorf("twofold assignment = %+v, want robot 0's excursions 1 then 2, then robot 1's", got)
	}
}

func TestExactAssignmentValidation(t *testing.T) {
	if _, err := ExactAssignment(nil, 0, 10); !errors.Is(err, ErrBadTurns) {
		t.Error("q = 0 should fail")
	}
	if _, err := ExactAssignment(nil, 1, 0.5); !errors.Is(err, ErrBadTurns) {
		t.Error("upTo <= 1 should fail")
	}
}

func TestExactAssignmentMultiRobotORC(t *testing.T) {
	// The m-ray optimal strategy, labels dropped, must q-fold cover in
	// the ORC setting at lambda0 and admit an exact-q assignment.
	cases := []struct{ m, k, f int }{{3, 2, 0}, {2, 3, 1}, {4, 3, 0}}
	for _, c := range cases {
		s, err := strategy.NewCyclicExponential(c.m, c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		q := c.m * (c.f + 1)
		lambda0, err := bounds.AMKF(c.m, c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		var all []Interval
		for r := 0; r < c.k; r++ {
			rounds, err := s.AppendRounds(nil, r, 800)
			if err != nil {
				t.Fatal(err)
			}
			turns := make([]float64, len(rounds))
			for i, rd := range rounds {
				turns[i] = rd.Turn
			}
			ivs, err := ORCCovIntervals(r, turns, lambda0*(1+1e-6))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, ivs...)
		}
		prof, err := Multiplicity(all, 200)
		if err != nil {
			t.Fatal(err)
		}
		if prof.MinMult() < q {
			gap, _ := prof.FirstBelow(q)
			t.Fatalf("m=%d k=%d f=%d: ORC multiplicity %d < q=%d (gap at %g)",
				c.m, c.k, c.f, prof.MinMult(), q, gap)
		}
		assigned, err := ExactAssignment(all, q, 200)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyAssignment(assigned, q, 200); err != nil {
			t.Errorf("m=%d k=%d f=%d: %v", c.m, c.k, c.f, err)
		}
		// Every robot participates.
		per := PerRobot(assigned, c.k)
		for r, list := range per {
			if len(list) == 0 {
				t.Errorf("m=%d k=%d f=%d: robot %d has no assigned intervals", c.m, c.k, c.f, r)
			}
		}
	}
}

func TestPerRobotIgnoresOutOfRange(t *testing.T) {
	assigned := []Assigned{{Robot: 0}, {Robot: 5}, {Robot: 1}}
	per := PerRobot(assigned, 2)
	if len(per[0]) != 1 || len(per[1]) != 1 {
		t.Error("PerRobot grouping wrong")
	}
}

func TestVerifyAssignmentCatchesViolations(t *testing.T) {
	// TPrime before Lo.
	bad := []Assigned{{Robot: 0, Index: 1, TPrime: 1, Turn: 5, Lo: 2}}
	if err := VerifyAssignment(bad, 1, 5); err == nil {
		t.Error("TPrime < Lo must be rejected")
	}
	// Non-monotone per-robot TPrime.
	bad2 := []Assigned{
		{Robot: 0, Index: 2, TPrime: 3, Turn: 6, Lo: 1},
		{Robot: 0, Index: 1, TPrime: 1, Turn: 4, Lo: 1},
	}
	if err := VerifyAssignment(bad2, 1, 4); err == nil {
		t.Error("decreasing TPrime must be rejected")
	}
	// Over-coverage (multiplicity 2 where q = 1).
	bad3 := []Assigned{
		{Robot: 0, Index: 1, TPrime: 1, Turn: 5, Lo: 1},
		{Robot: 1, Index: 1, TPrime: 1, Turn: 5, Lo: 1},
	}
	if err := VerifyAssignment(bad3, 1, 5); !errors.Is(err, ErrCoverageGap) {
		t.Error("over-coverage must be rejected for exactness")
	}
}

func TestQuickExactAssignmentOnRandomCovers(t *testing.T) {
	// Property: whenever random intervals q-fold cover (1, N], the sweep
	// finds an exact assignment that verifies; robots' intervals are
	// generated in increasing order to mimic real excursion sequences.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const upTo = 20.0
		q := 1 + rng.Intn(3)
		k := q + rng.Intn(3)
		var all []Interval
		for r := 0; r < k; r++ {
			// Chain of overlapping intervals from below 1 to beyond upTo.
			lo := rng.Float64() * 0.5
			idx := 1
			for lo < upTo {
				hi := lo + 0.5 + rng.Float64()*6
				all = append(all, Interval{Robot: r, Index: idx, Lo: lo, Hi: hi})
				idx++
				// Overlap the next interval with this one.
				lo = lo + (hi-lo)*(0.3+0.6*rng.Float64())
			}
		}
		prof, err := Multiplicity(all, upTo)
		if err != nil {
			return false
		}
		if prof.MinMult() < q {
			return true // not a q-fold cover; nothing to assign
		}
		assigned, err := ExactAssignment(all, q, upTo)
		if err != nil {
			// EDF with the retire-earlier rule can fail on adversarial
			// overlap patterns even when a fractional cover exists; that
			// is permitted, but must be reported as a coverage gap.
			return errors.Is(err, ErrCoverageGap)
		}
		return VerifyAssignment(assigned, q, upTo) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
