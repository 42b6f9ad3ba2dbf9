package potential

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/cover"
	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// perturbedRounds returns the optimal (m, k, f) strategy's rounds up to
// 4*550, every turn scaled by a factor drawn from [0.8, 1.25), as a
// FixedRounds strategy: robots keep their rays, not their proportions.
func perturbedRounds(t *testing.T, opt *strategy.CyclicExponential, rng *rand.Rand, name string) strategy.Strategy {
	t.Helper()
	robots := make([][]trajectory.Round, opt.K())
	for r := range robots {
		rounds, err := opt.AppendRounds(nil, r, 4*550)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rounds {
			rounds[i].Turn *= 0.8 + 0.45*rng.Float64()
		}
		robots[r] = rounds
	}
	s, err := strategy.NewFixedRounds(name, opt.M(), robots)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// gapped reports whether cert or any certificate of its Sub chain came
// from an outright coverage gap.
func gapped(cert *Certificate) bool {
	for c := cert; c != nil; c = c.Sub {
		if c.GapDetail != "" {
			return true
		}
	}
	return false
}

// TestORCRefutationAgreesWithAdversary checks the ORC relaxation against
// the exact adversary, an independent oracle. Take an m-ray strategy S
// with k robots and f crashes, q = m(f+1), and its exact worst-case ratio
// lambda* over [1, H). At every x < H each ray then has f+1 distinct
// robots that reach x by time lambda*·x, and each such visit is an ORC
// covering of x (rays forgotten), so at any lambda >= lambda* the ORC
// intervals of S q-fold cover (1, H], and RefuteORCStrategy must find no
// gap. The relation runs one way only (ORC is a relaxation), so below
// lambda* a gap may or may not appear; at 0.97·lambda* some drawn case
// must gap, or the check would hold vacuously.
//
// Strategies are drawn as FuzzExactRatioMatchesReference draws its
// FixedRounds: every search-regime cell with m <= 4 and k <= 5, its
// optimal strategy and two copies with every turn perturbed, each at two
// horizons in [50, 550]. The multiplicity and the refuter are checked on
// every case, the perturbed ones included, whose robots' turns may
// decrease.
func TestORCRefutationAgreesWithAdversary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases, gapsBelow := 0, 0
	for m := 2; m <= 4; m++ {
		for k := 1; k <= 5; k++ {
			for f := 0; f < k; f++ {
				q := m * (f + 1)
				if k >= q {
					continue
				}
				opt, err := strategy.NewCyclicExponential(m, k, f)
				if err != nil {
					t.Fatal(err)
				}
				strategies := []strategy.Strategy{opt}
				for i := 0; i < 2; i++ {
					name := fmt.Sprintf("perturbed-%d(m=%d,k=%d,f=%d)", i, m, k, f)
					strategies = append(strategies, perturbedRounds(t, opt, rng, name))
				}
				for _, s := range strategies {
					for i := 0; i < 2; i++ {
						h := 50 + 500*rng.Float64()
						ev, err := adversary.ExactRatio(context.Background(), s, f, h)
						if err != nil {
							t.Fatalf("%s h=%g: %v", s.Name(), h, err)
						}
						lambda := ev.WorstRatio * (1 + 1e-9)
						turns := make([][]float64, k)
						var all []cover.Interval
						for r := range turns {
							if turns[r], err = strategy.Turns(s, r, h); err != nil {
								t.Fatal(err)
							}
							ivs, err := cover.ORCCovIntervals(r, turns[r], lambda)
							if err != nil {
								t.Fatal(err)
							}
							all = append(all, ivs...)
						}
						cases++
						prof, err := cover.Multiplicity(all, h)
						if err != nil {
							t.Fatal(err)
						}
						if got := prof.MinMult(); got < q {
							x, _ := prof.FirstBelow(q)
							t.Errorf("%s h=%g: ORC multiplicity %d < %d beyond x = %g at the exact ratio %.12g",
								s.Name(), h, got, q, x, ev.WorstRatio)
						}
						at, err := RefuteORCStrategy(turns, q, lambda, h, 1e9)
						if err != nil {
							t.Fatalf("%s h=%g at the exact ratio: %v", s.Name(), h, err)
						}
						if gapped(&at) {
							t.Errorf("%s h=%g: ORC gap at the exact ratio %.12g: %s",
								s.Name(), h, ev.WorstRatio, at.GapDetail)
						}
						below, err := RefuteORCStrategy(turns, q, ev.WorstRatio*0.97, h, 1e9)
						if err != nil {
							t.Fatalf("%s h=%g below the exact ratio: %v", s.Name(), h, err)
						}
						if gapped(&below) {
							gapsBelow++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d gaps at 0.97 of the exact ratio", cases, gapsBelow)
	if cases != 204 {
		t.Errorf("checked %d cases, want 204 (34 cells, 3 strategies, 2 horizons)", cases)
	}
	if gapsBelow == 0 {
		t.Error("no case gaps at 0.97 of its exact ratio: the check is vacuous")
	}
}
