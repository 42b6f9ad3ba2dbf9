package strategy

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/numeric"
	"repro/internal/trajectory"
)

func TestNewCyclicExponentialRegimeChecks(t *testing.T) {
	tests := []struct {
		name    string
		m, k, f int
		wantErr bool
	}{
		{"cow path", 2, 1, 0, false},
		{"line one fault", 2, 3, 1, false},
		{"three rays", 3, 2, 0, false},
		{"trivial regime", 2, 4, 1, true},
		{"unsolvable", 2, 2, 2, true},
		{"invalid m", 0, 1, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewCyclicExponential(tt.m, tt.k, tt.f)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewCyclicExponential(%d,%d,%d) error = %v, wantErr %v",
					tt.m, tt.k, tt.f, err, tt.wantErr)
			}
		})
	}
}

func TestCyclicExponentialOptimalAlpha(t *testing.T) {
	s, err := NewCyclicExponential(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// q = 2, k = 1: alpha* = q/(q-k) = 2, the classic doubling base.
	if !numeric.EqualWithin(s.Alpha(), 2, 1e-14) {
		t.Errorf("alpha* = %g, want 2", s.Alpha())
	}
	if s.Q() != 2 || s.F() != 0 || s.M() != 2 || s.K() != 1 {
		t.Error("accessors misbehave")
	}
}

func TestNewCyclicExponentialAlphaValidation(t *testing.T) {
	if _, err := NewCyclicExponentialAlpha(2, 1, 0, 1.0); !errors.Is(err, ErrBadParams) {
		t.Error("alpha = 1 should fail")
	}
	if _, err := NewCyclicExponentialAlpha(2, 1, 0, math.NaN()); !errors.Is(err, ErrBadParams) {
		t.Error("alpha = NaN should fail")
	}
	s, err := NewCyclicExponentialAlpha(2, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Alpha() != 3 {
		t.Errorf("alpha = %g, want 3", s.Alpha())
	}
}

func TestCyclicExponentialRoundsCyclicOrder(t *testing.T) {
	s, err := NewCyclicExponential(3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := s.AppendRounds(nil, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("no rounds")
	}
	// Rays must cycle 1, 2, 3, 1, 2, 3, ... starting from ray 1 at
	// l = 1-2m (l ≡ 1 mod m maps to ray 1).
	first := ((1-2*3-1)%3+3)%3 + 1
	for i, r := range rounds {
		want := (first-1+i)%3 + 1
		if r.Ray != want {
			t.Fatalf("round %d on ray %d, want %d", i, r.Ray, want)
		}
	}
	// Turns form a geometric progression with ratio alpha^k.
	ratio := math.Pow(s.Alpha(), float64(s.K()))
	for i := 1; i < len(rounds); i++ {
		if !numeric.EqualWithin(rounds[i].Turn/rounds[i-1].Turn, ratio, 1e-9) {
			t.Fatalf("turn ratio %g at %d, want %g", rounds[i].Turn/rounds[i-1].Turn, i, ratio)
		}
	}
}

func TestCyclicExponentialRoundsErrors(t *testing.T) {
	s, err := NewCyclicExponential(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendRounds(nil, 1, 10); !errors.Is(err, ErrBadParams) {
		t.Error("robot index out of range should fail")
	}
	if _, err := s.AppendRounds(nil, 0, 0); !errors.Is(err, ErrBadParams) {
		t.Error("zero horizon should fail")
	}
	if _, err := s.AppendRounds(nil, 0, math.Inf(1)); !errors.Is(err, ErrBadParams) {
		t.Error("infinite horizon should fail")
	}
}

// coverCount returns how many distinct robots visit point p by time
// lambda * dist, using the strategy's trajectories.
func coverCount(t *testing.T, s Strategy, p trajectory.Point, lambda, horizon float64) int {
	t.Helper()
	trajs, err := Trajectories(s, horizon)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, tr := range trajs {
		if tr.FirstVisit(p) <= lambda*p.Dist {
			count++
		}
	}
	return count
}

func TestCyclicExponentialCoversWithMultiplicity(t *testing.T) {
	// Theorem 6's strategy must deliver f+1 visits to every point at
	// distance >= 1 within lambda0 * dist.
	cases := []struct{ m, k, f int }{
		{2, 1, 0}, {2, 3, 1}, {3, 2, 0}, {3, 4, 1}, {4, 3, 0},
	}
	for _, c := range cases {
		s, err := NewCyclicExponential(c.m, c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		lambda0, err := bounds.AMKF(c.m, c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		lambda := lambda0 * (1 + 1e-9) // tolerance for float rounding
		for _, dist := range []float64{1, 1.5, 2.7, 10, 49.3} {
			for ray := 1; ray <= c.m; ray++ {
				p := trajectory.Point{Ray: ray, Dist: dist}
				got := coverCount(t, s, p, lambda, dist*4)
				if got < c.f+1 {
					t.Errorf("m=%d k=%d f=%d: point %v visited by %d robots within lambda0*d, want >= %d",
						c.m, c.k, c.f, p, got, c.f+1)
				}
			}
		}
	}
}

func TestCyclicExponentialRatioNearLambda0(t *testing.T) {
	// The worst-case over sampled points of the (f+1)-st visit ratio must
	// stay at or below lambda0 (up to sampling slack) and the supremum
	// must be approached somewhere.
	c := struct{ m, k, f int }{2, 3, 1}
	s, err := NewCyclicExponential(c.m, c.k, c.f)
	if err != nil {
		t.Fatal(err)
	}
	lambda0, err := bounds.AMKF(c.m, c.k, c.f)
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := Trajectories(s, 400)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, dist := range logspace(1, 100, 400) {
		for ray := 1; ray <= c.m; ray++ {
			p := trajectory.Point{Ray: ray, Dist: dist}
			var visits []float64
			for _, tr := range trajs {
				visits = append(visits, tr.FirstVisit(p))
			}
			sort.Float64s(visits)
			ratio := visits[c.f] / dist
			if ratio > worst {
				worst = ratio
			}
		}
	}
	if worst > lambda0*(1+1e-9) {
		t.Errorf("sampled worst ratio %.9g exceeds lambda0 %.9g", worst, lambda0)
	}
	if worst < lambda0*0.95 {
		t.Errorf("sampled worst ratio %.9g is far below lambda0 %.9g; strategy looks wrong", worst, lambda0)
	}
}

func logspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		frac := float64(i) / float64(n-1)
		out[i] = lo * math.Exp(frac*math.Log(hi/lo))
	}
	return out
}

func TestDoublingIsCowPath(t *testing.T) {
	s := Doubling()
	if s.M() != 2 || s.K() != 1 || s.F() != 0 {
		t.Error("Doubling parameters wrong")
	}
	turns, err := s.LineTurns(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(turns); i++ {
		if !numeric.EqualWithin(turns[i]/turns[i-1], 2, 1e-12) {
			t.Fatalf("doubling ratio broken at %d: %g -> %g", i, turns[i-1], turns[i])
		}
	}
}

func TestLineTurnsRequiresLine(t *testing.T) {
	s, err := NewCyclicExponential(3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LineTurns(0, 10); !errors.Is(err, ErrBadParams) {
		t.Error("LineTurns on m=3 should fail")
	}
}

func TestFixedRounds(t *testing.T) {
	robots := [][]trajectory.Round{
		{{Ray: 1, Turn: 1}, {Ray: 2, Turn: 2}},
		{{Ray: 2, Turn: 1}, {Ray: 1, Turn: 2}},
	}
	s, err := NewFixedRounds("test", 2, robots)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "test" || s.M() != 2 || s.K() != 2 {
		t.Error("accessors misbehave")
	}
	got, err := s.AppendRounds(nil, 1, 999)
	if err != nil {
		t.Fatal(err)
	}
	got[0].Turn = 42 // must not alias internal state
	again, err := s.AppendRounds(nil, 1, 999)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Turn != 1 {
		t.Error("AppendRounds must return a defensive copy")
	}
	if _, err := s.AppendRounds(nil, 5, 1); !errors.Is(err, ErrBadParams) {
		t.Error("robot out of range should fail")
	}
}

func TestNewFixedRoundsValidation(t *testing.T) {
	if _, err := NewFixedRounds("x", 2, nil); !errors.Is(err, ErrBadParams) {
		t.Error("no robots should fail")
	}
	bad := [][]trajectory.Round{{{Ray: 9, Turn: 1}}}
	if _, err := NewFixedRounds("x", 2, bad); err == nil {
		t.Error("invalid ray should fail")
	}
}

func TestRaySplitValidation(t *testing.T) {
	if _, err := NewRaySplit(2, 2); !errors.Is(err, ErrBadParams) {
		t.Error("k >= m should fail")
	}
	if _, err := NewRaySplit(1, 1); !errors.Is(err, ErrBadParams) {
		t.Error("m < 2 should fail")
	}
}

func TestRaySplitCoversAllRays(t *testing.T) {
	s, err := NewRaySplit(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 2 || s.M() != 5 {
		t.Error("accessors misbehave")
	}
	seen := make(map[int]bool)
	for r := 0; r < s.K(); r++ {
		rounds, err := s.AppendRounds(nil, r, 50)
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range rounds {
			seen[rd.Ray] = true
		}
	}
	for ray := 1; ray <= 5; ray++ {
		if !seen[ray] {
			t.Errorf("ray %d never visited", ray)
		}
	}
}

func TestRaySplitSingleRayRobot(t *testing.T) {
	// m=3, k=2: robot 1 owns only ray 2 and goes straight out.
	s, err := NewRaySplit(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := s.AppendRounds(nil, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 || rounds[0].Ray != 2 {
		t.Errorf("single-ray robot rounds = %v, want one round on ray 2", rounds)
	}
}

func TestRaySplitEveryPointCovered(t *testing.T) {
	s, err := NewRaySplit(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := Trajectories(s, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []float64{1, 3, 17, 42} {
		for ray := 1; ray <= 4; ray++ {
			p := trajectory.Point{Ray: ray, Dist: dist}
			visited := false
			for _, tr := range trajs {
				if !math.IsInf(tr.FirstVisit(p), 1) {
					visited = true
				}
			}
			if !visited {
				t.Errorf("point %v never visited by ray-split", p)
			}
		}
	}
}

func TestRaySplitRoundsErrors(t *testing.T) {
	s, err := NewRaySplit(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendRounds(nil, 2, 10); !errors.Is(err, ErrBadParams) {
		t.Error("robot out of range should fail")
	}
	if _, err := s.AppendRounds(nil, 0, math.NaN()); !errors.Is(err, ErrBadParams) {
		t.Error("NaN horizon should fail")
	}
}

func TestStandardizeValidation(t *testing.T) {
	if _, err := Standardize([]float64{1, -1}); !errors.Is(err, ErrBadParams) {
		t.Error("negative turn should fail")
	}
	if _, err := Standardize([]float64{math.Inf(1)}); !errors.Is(err, ErrBadParams) {
		t.Error("infinite turn should fail")
	}
}

func TestStandardizeAlreadyStandard(t *testing.T) {
	in := []float64{1, 2, 4, 8}
	out, err := Standardize(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("standard input changed length: %v", out)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("standard input modified: %v", out)
		}
	}
}

func TestStandardizeProducesStandardForm(t *testing.T) {
	in := []float64{5, 1, 7, 6, 2, 9}
	out, err := Standardize(in)
	if err != nil {
		t.Fatal(err)
	}
	if !IsStandardForm(out) {
		t.Errorf("Standardize output %v is not in standard form", out)
	}
}

func TestIsStandardForm(t *testing.T) {
	if !IsStandardForm([]float64{1, 1, 2, 4}) {
		t.Error("nondecreasing positive should be standard")
	}
	if IsStandardForm([]float64{2, 1}) {
		t.Error("decreasing should not be standard")
	}
	if IsStandardForm([]float64{0, 1}) {
		t.Error("zero turn should not be standard")
	}
	if !IsStandardForm(nil) {
		t.Error("empty sequence is vacuously standard")
	}
}

// pairVisitOrInf returns the pair-visit time of x for the zigzag described
// by turns, or +Inf when coverage is incomplete.
func pairVisitOrInf(t *testing.T, turns []float64, x float64) float64 {
	t.Helper()
	l, err := trajectory.NewLine(turns, false)
	if err != nil {
		t.Fatal(err)
	}
	return l.PairVisit(x)
}

func TestQuickStandardizeNeverDelaysPairVisits(t *testing.T) {
	// The heart of the Theorem 3 standardization argument: for every
	// point that the standardized prefix still pair-covers, the pair is
	// completed no later than by the original. (The paper's rewrites are
	// stated for infinite strategies; on a finite prefix they may shrink
	// the final frontier, so points covered only by the original's last
	// few excursions are excluded — the proof's prefix-limit argument
	// handles those by taking ever longer prefixes.)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(7)
		turns := make([]float64, n)
		for i := range turns {
			turns[i] = 0.5 + rng.Float64()*10
		}
		std, err := Standardize(turns)
		if err != nil {
			return false
		}
		if !IsStandardForm(std) {
			return false
		}
		maxTurn := 0.0
		for _, v := range std {
			if v > maxTurn {
				maxTurn = v
			}
		}
		for trial := 0; trial < 24; trial++ {
			x := 0.1 + rng.Float64()*maxTurn
			orig := pairVisitOrInf(t, turns, x)
			got := pairVisitOrInf(t, std, x)
			if math.IsInf(orig, 1) || math.IsInf(got, 1) {
				continue
			}
			if got > orig+1e-9 {
				t.Logf("seed %d: x=%g orig=%g std=%g turns=%v std=%v", seed, x, orig, got, turns, std)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickCyclicRoundsDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		f0 := rng.Intn(2)
		kMin := f0 + 1
		kMax := m*(f0+1) - 1
		if kMax < kMin {
			return true
		}
		k := kMin + rng.Intn(kMax-kMin+1)
		s, err := NewCyclicExponential(m, k, f0)
		if err != nil {
			return false
		}
		h := 1 + rng.Float64()*50
		r := rng.Intn(k)
		a, err1 := s.AppendRounds(nil, r, h)
		b, err2 := s.AppendRounds(nil, r, h)
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestTrajectoriesPropagatesErrors(t *testing.T) {
	s, err := NewCyclicExponential(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Trajectories(s, -1); err == nil {
		t.Error("negative horizon should propagate an error")
	}
}
