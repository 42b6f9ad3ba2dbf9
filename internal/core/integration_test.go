package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/numeric"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// These integration tests exercise cross-package consistency: the closed
// forms, the high-precision path, the simulator, and the exact adversary
// must all tell the same story for the same Problem.

func TestIntegrationBoundConsistencyAcrossPaths(t *testing.T) {
	cases := []Problem{
		{M: 2, K: 1, F: 0},
		{M: 2, K: 3, F: 1},
		{M: 2, K: 5, F: 2},
		{M: 3, K: 2, F: 0},
		{M: 4, K: 3, F: 0},
		{M: 5, K: 4, F: 1},
	}
	for _, p := range cases {
		closed, err := p.LowerBound()
		if err != nil {
			t.Fatal(err)
		}
		// High-precision certified value.
		hp, err := p.HighPrecision(128)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.EqualWithin(hp.Lambda0.Float64(), closed, 1e-12) {
			t.Errorf("%+v: certified %.17g vs closed %.17g", p, hp.Lambda0.Float64(), closed)
		}
		// Interval-arithmetic enclosure contains the certified value.
		q, err := p.Q()
		if err != nil {
			t.Fatal(err)
		}
		iv, err := numeric.MuInterval(float64(q), float64(p.K))
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(hp.Mu.Float64()) {
			t.Errorf("%+v: interval [%g,%g] misses certified mu %g",
				p, iv.Lo, iv.Hi, hp.Mu.Float64())
		}
		// Rho-form equality.
		rho, err := p.Rho()
		if err != nil {
			t.Fatal(err)
		}
		viaRho, err := bounds.RhoForm(rho)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.EqualWithin(viaRho, closed, 1e-12) {
			t.Errorf("%+v: rho form %.15g vs closed %.15g", p, viaRho, closed)
		}
	}
}

func TestIntegrationSimNeverBeatsExactSup(t *testing.T) {
	// Any single simulated target's ratio is at most the exact supremum.
	p := Problem{M: 3, K: 4, F: 1}
	ev, err := p.VerifyUpperOn(context.Background(), engine.New(0), 1e4)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{1, 2.3, 7, 55.5, 400} {
		for ray := 1; ray <= 3; ray++ {
			res, err := p.Solve(trajectory.Point{Ray: ray, Dist: d})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ratio > ev.WorstRatio+1e-9 {
				t.Errorf("target r%d:%g simulated ratio %.9g above exact sup %.9g",
					ray, d, res.Ratio, ev.WorstRatio)
			}
		}
	}
}

func TestIntegrationSimUndetectableReported(t *testing.T) {
	// When the adversary can crash every robot that reaches the target,
	// the simulator must report the failure, not fabricate a detection.
	robots := [][]trajectory.Round{
		{{Ray: 1, Turn: 10}},                    // reaches the target
		{{Ray: 2, Turn: 10}},                    // wrong ray
		{{Ray: 2, Turn: 3}, {Ray: 2, Turn: 12}}, // wrong ray
	}
	s, err := strategy.NewFixedRounds("partial", 2, robots)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(sim.Config{
		Strategy: s,
		Faults:   1, // the lone visitor is crashed
		Target:   trajectory.Point{Ray: 1, Dist: 5},
	})
	if !errors.Is(err, sim.ErrNotDetected) {
		t.Errorf("expected ErrNotDetected, got %v", err)
	}
}

func TestIntegrationRefuteAtManyFactors(t *testing.T) {
	p := Problem{M: 3, K: 2, F: 0}
	for _, factor := range []float64{0.5, 0.8, 0.99} {
		cert, err := p.RefuteBelow(context.Background(), factor, 120)
		if err != nil {
			t.Fatalf("factor %g: %v", factor, err)
		}
		if cert.Verdict == 0 {
			t.Errorf("factor %g: missing verdict", factor)
		}
		if cert.Verdict.String() == "bounded" {
			t.Errorf("factor %g: refutation failed below the bound", factor)
		}
	}
}

func TestQuickIntegrationRegimeTotal(t *testing.T) {
	// Every parameter triple lands in exactly one regime and the facade
	// behaves accordingly (no panics, coherent errors).
	f := func(mRaw, kRaw, fRaw uint8) bool {
		p := Problem{
			M: int(mRaw%6) + 1,
			K: int(kRaw%8) + 1,
			F: int(fRaw % 8),
		}
		if p.M < 2 {
			p.M = 2
		}
		regime, err := p.Regime()
		if err != nil {
			return false
		}
		lb, lbErr := p.LowerBound()
		switch regime {
		case bounds.RegimeUnsolvable:
			return errors.Is(lbErr, bounds.ErrUnsolvable) && math.IsInf(lb, 1)
		case bounds.RegimeTrivial:
			_, stratErr := p.OptimalStrategy()
			return lbErr == nil && lb == 1 && errors.Is(stratErr, ErrNotSearchRegime)
		case bounds.RegimeSearch:
			if lbErr != nil || lb <= 3 {
				return false
			}
			s, err := p.OptimalStrategy()
			return err == nil && s.M() == p.M && s.K() == p.K
		default:
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIntegrationByzantineTransferMonotone(t *testing.T) {
	// The Byzantine lower bound equals the crash bound for every valid
	// configuration (the transfer is implemented as equality).
	for k := 1; k <= 6; k++ {
		for f := 0; f < k; f++ {
			crash := Problem{M: 2, K: k, F: f}
			byz := Problem{M: 2, K: k, F: f, Model: "byzantine"}
			c, errC := crash.LowerBound()
			b, errB := byz.LowerBound()
			if (errC == nil) != (errB == nil) {
				t.Fatalf("k=%d f=%d: error mismatch", k, f)
			}
			if errC == nil && c != b {
				t.Errorf("k=%d f=%d: crash %g != byzantine %g", k, f, c, b)
			}
		}
	}
}
