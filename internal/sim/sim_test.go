package sim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/numeric"
	"repro/internal/strategy"
	"repro/internal/trajectory"
)

func TestRunValidation(t *testing.T) {
	s := strategy.Doubling()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil strategy", Config{}},
		{"too many faults", Config{Strategy: s, Faults: 1, Target: trajectory.Point{Ray: 1, Dist: 2}}},
		{"bad ray", Config{Strategy: s, Target: trajectory.Point{Ray: 3, Dist: 2}}},
		{"distance below 1", Config{Strategy: s, Target: trajectory.Point{Ray: 1, Dist: 0.5}}},
		{"horizon below 1", Config{Strategy: s, Target: trajectory.Point{Ray: 1, Dist: 2}, HorizonFactor: 0.5}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("expected ErrBadConfig, got %v", err)
			}
		})
	}
}

func TestEventKindString(t *testing.T) {
	if EventVisit.String() != "visit" || EventReport.String() != "report" || EventDetect.String() != "detect" {
		t.Error("EventKind.String misbehaves")
	}
	if EventKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestRunCowPathDetection(t *testing.T) {
	// Single healthy robot doubling: target at +3 on ray 1 is reached on
	// the excursion that first passes distance 3.
	s := strategy.Doubling()
	res, err := Run(Config{Strategy: s, Faults: 0, Target: trajectory.Point{Ray: 1, Dist: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detector != 0 {
		t.Errorf("detector = %d, want robot 0", res.Detector)
	}
	if res.Ratio > 9+1e-9 {
		t.Errorf("cow-path ratio %g exceeds 9 at a sampled point", res.Ratio)
	}
	if len(res.FaultySet) != 0 {
		t.Error("no faults requested, none should be assigned")
	}
	// Timeline sanity: visit then report then detect, same time.
	if len(res.Timeline) != 3 {
		t.Fatalf("timeline %v, want 3 events", res.Timeline)
	}
	if res.Timeline[0].Kind != EventVisit || res.Timeline[1].Kind != EventReport ||
		res.Timeline[2].Kind != EventDetect {
		t.Error("timeline order wrong")
	}
}

func TestRunAdversarySilencesFirstVisitors(t *testing.T) {
	// k=3, f=1 on the line: the first robot to arrive is crashed; the
	// detection happens at the second distinct arrival.
	s, err := strategy.NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	target := trajectory.Point{Ray: 1, Dist: 7}
	res, err := Run(Config{Strategy: s, Faults: 1, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultySet) != 1 {
		t.Fatalf("faulty set %v, want exactly 1 robot", res.FaultySet)
	}
	if res.FaultySet[0] == res.Detector {
		t.Error("the detector cannot be the crashed robot")
	}
	// Cross-check with the analytic (f+1)-st order statistic.
	trajs, err := strategy.Trajectories(s, target.Dist*8)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []float64
	for _, tr := range trajs {
		arrivals = append(arrivals, tr.FirstVisit(target))
	}
	sort.Float64s(arrivals)
	if !numeric.EqualWithin(res.DetectionTime, arrivals[1], 1e-9) {
		t.Errorf("detection %g, want second arrival %g", res.DetectionTime, arrivals[1])
	}
}

func TestRunRatioWithinLambda0(t *testing.T) {
	cases := []struct{ m, k, f int }{{2, 1, 0}, {2, 3, 1}, {3, 2, 0}, {3, 4, 1}}
	for _, c := range cases {
		s, err := strategy.NewCyclicExponential(c.m, c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		lambda0, err := bounds.AMKF(c.m, c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []float64{1, 2.3, 5, 17.9} {
			for ray := 1; ray <= c.m; ray++ {
				res, err := Run(Config{Strategy: s, Faults: c.f, Target: trajectory.Point{Ray: ray, Dist: d}})
				if err != nil {
					t.Fatal(err)
				}
				if res.Ratio > lambda0*(1+1e-9) {
					t.Errorf("m=%d k=%d f=%d target r%d:%g ratio %.9g > lambda0 %.9g",
						c.m, c.k, c.f, ray, d, res.Ratio, lambda0)
				}
			}
		}
	}
}

func TestDetectionTimeErrors(t *testing.T) {
	s := strategy.Doubling()
	trajs, err := strategy.Trajectories(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DetectionTime(trajs, trajectory.Point{Ray: 1, Dist: 2}, 1); !errors.Is(err, ErrBadConfig) {
		t.Error("faults >= robots should fail")
	}
	// Target beyond the trajectory horizon is undetectable.
	got, err := DetectionTime(trajs, trajectory.Point{Ray: 1, Dist: 1e6}, 0)
	if !errors.Is(err, ErrNotDetected) {
		t.Errorf("expected ErrNotDetected, got %v", err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("undetected time = %g, want +Inf", got)
	}
}

func TestQuickMoreFaultsNeverDetectEarlier(t *testing.T) {
	// Property: with the same strategy and target, increasing the fault
	// budget never decreases the detection time.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(3) // 3..5 robots
		fmax := (k - 1) / 2
		s, err := strategy.NewCyclicExponential(2, k, fmax)
		if err != nil {
			return true // parameters out of regime; skip
		}
		d := 1 + rng.Float64()*20
		ray := 1 + rng.Intn(2)
		prev := 0.0
		for faults := 0; faults <= fmax; faults++ {
			res, err := Run(Config{Strategy: s, Faults: faults, Target: trajectory.Point{Ray: ray, Dist: d}})
			if err != nil {
				return false
			}
			if res.DetectionTime < prev-1e-9 {
				return false
			}
			prev = res.DetectionTime
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickDetectionIsOrderStatistic(t *testing.T) {
	// Property: detection time equals the (f+1)-st order statistic of the
	// robots' first arrivals, for random targets.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := strategy.NewCyclicExponential(2, 3, 1)
		if err != nil {
			return false
		}
		d := 1 + rng.Float64()*30
		ray := 1 + rng.Intn(2)
		target := trajectory.Point{Ray: ray, Dist: d}
		res, err := Run(Config{Strategy: s, Faults: 1, Target: target})
		if err != nil {
			return false
		}
		trajs, err := strategy.Trajectories(s, d*8)
		if err != nil {
			return false
		}
		var arrivals []float64
		for _, tr := range trajs {
			arrivals = append(arrivals, tr.FirstVisit(target))
		}
		sort.Float64s(arrivals)
		return numeric.EqualWithin(res.DetectionTime, arrivals[1], 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
