package registry

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/bounds"
	"repro/internal/engine"
)

func TestDefaultHasBuiltins(t *testing.T) {
	want := []string{"byzantine", "byzantine-line", "crash", "evacuation-line", "pfaulty-halfline", "probabilistic", "shoreline"}
	var got []string
	for _, s := range Default().All() {
		got = append(got, s.Name)
	}
	if len(got) != len(want) {
		t.Fatalf("All() names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, got[i], want[i])
		}
	}
	for _, s := range Default().All() {
		if s.Description == "" || len(s.Params) == 0 {
			t.Errorf("scenario %q is not self-describing: %+v", s.Name, s)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("martian"); !errors.Is(err, ErrUnknownScenario) {
		t.Errorf("Get(martian) = %v, want ErrUnknownScenario", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Scenario{}); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("empty scenario registered: %v", err)
	}
	ok := Scenario{
		Name:       "x",
		Objective:  ObjectiveFind,
		Validate:   func(m, k, f int) error { return nil },
		LowerBound: func(m, k, f int) (float64, error) { return 1, nil },
		UpperBound: func(m, k, f int) (float64, error) { return 1, nil },
		VerifyJob:  func(ctx context.Context, req Request) (engine.Job, error) { return nil, ErrNotVerifiable },
	}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate registration: %v", err)
	}
	if err := r.Register(Scenario{Name: "y", Validate: ok.Validate}); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("partial scenario registered: %v", err)
	}
	// Objective is mandatory and closed: neither empty nor invented
	// values register.
	noObj := ok
	noObj.Name, noObj.Objective = "no-objective", ""
	if err := r.Register(noObj); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("objective-less scenario registered: %v", err)
	}
	badObj := ok
	badObj.Name, badObj.Objective = "bad-objective", "patrol"
	if err := r.Register(badObj); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("unknown objective registered: %v", err)
	}
}

func TestCrashScenarioMatchesBounds(t *testing.T) {
	sc, err := Get("crash")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := sc.LowerBound(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := bounds.AMKF(2, 3, 1)
	if lb != want {
		t.Errorf("crash lower bound = %g, want %g", lb, want)
	}
	ub, err := sc.UpperBound(2, 3, 1)
	if err != nil || ub != want {
		t.Errorf("crash upper bound = (%g, %v), want tight %g", ub, err, want)
	}
	job, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 3, F: 1, Horizon: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.New(1).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Value-want) / want; rel > 1e-3 {
		t.Errorf("verify job measured %g vs closed form %g (rel %g)", res.Value, want, rel)
	}
	// Outside the search regime verification is refused.
	if _, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 4, F: 1, Horizon: 1e4}); !errors.Is(err, ErrNotVerifiable) {
		t.Errorf("trivial-regime verify = %v, want ErrNotVerifiable", err)
	}
}

func TestByzantineScenario(t *testing.T) {
	sc, err := Get("byzantine")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := sc.LowerBound(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	crash, _ := bounds.AMKF(2, 3, 1)
	if lb != crash {
		t.Errorf("byzantine transfer bound = %g, want crash value %g", lb, crash)
	}
	if _, err := sc.UpperBound(2, 3, 1); !errors.Is(err, ErrNoUpperBound) {
		t.Errorf("byzantine upper bound = %v, want ErrNoUpperBound", err)
	}
	if _, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 3, F: 1, Horizon: 1e4}); !errors.Is(err, ErrNotVerifiable) {
		t.Errorf("byzantine verify = %v, want ErrNotVerifiable", err)
	}
	if sc.HasUpperBound || sc.Verifiable {
		t.Errorf("byzantine capability flags wrong: %+v", sc)
	}
}

func TestProbabilisticScenario(t *testing.T) {
	sc, err := Get("probabilistic")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := sc.LowerBound(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb-4.5911) > 1e-3 {
		t.Errorf("probabilistic bound = %g, want ~4.5911", lb)
	}
	if _, err := sc.LowerBound(2, 3, 1); err == nil {
		t.Error("probabilistic stub must reject k > 1")
	}
	job, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 1, F: 0, Horizon: 4000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.New(1).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-lb)/lb > 0.05 {
		t.Errorf("Monte-Carlo estimate %g far from closed form %g", res.Value, lb)
	}
	// Same horizon => same job key (deterministic, cacheable).
	j2, _ := sc.VerifyJob(context.Background(), Request{M: 2, K: 1, F: 0, Horizon: 4000})
	if job.Key() == "" || job.Key() != j2.Key() {
		t.Errorf("probabilistic verify jobs not cache-stable: %q vs %q", job.Key(), j2.Key())
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Register(Scenario{
					Name:       string(rune('a' + g)),
					Objective:  ObjectiveFind,
					Validate:   func(m, k, f int) error { return nil },
					LowerBound: func(m, k, f int) (float64, error) { return 1, nil },
					UpperBound: func(m, k, f int) (float64, error) { return 1, nil },
					VerifyJob:  func(ctx context.Context, req Request) (engine.Job, error) { return nil, ErrNotVerifiable },
				})
				r.Get(string(rune('a' + g)))
				r.All()
			}
		}(g)
	}
	wg.Wait()
	if n := len(r.All()); n != 8 {
		t.Errorf("expected 8 scenarios after concurrent registration, got %d", n)
	}
}

func TestCostClasses(t *testing.T) {
	// Built-in classes are the admission layer's routing table; pin
	// them so a refactor cannot silently send Monte-Carlo floods down
	// the fast path.
	want := map[string]Cost{
		"crash":            CostAnalytic,
		"byzantine":        CostClosedForm,
		"probabilistic":    CostMonteCarlo,
		"pfaulty-halfline": CostMonteCarlo,
		"byzantine-line":   CostMonteCarlo,
		"shoreline":        CostAnalytic,
		"evacuation-line":  CostMonteCarlo,
	}
	for name, cost := range want {
		s, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		if s.Cost != cost {
			t.Errorf("scenario %q cost = %q, want %q", name, s.Cost, cost)
		}
	}
}

func TestCostDefaultsAtRegister(t *testing.T) {
	r := NewRegistry()
	base := Scenario{
		Objective:  ObjectiveFind,
		Validate:   func(m, k, f int) error { return nil },
		LowerBound: func(m, k, f int) (float64, error) { return 1, nil },
		UpperBound: func(m, k, f int) (float64, error) { return 1, nil },
		VerifyJob:  func(ctx context.Context, req Request) (engine.Job, error) { return nil, ErrNotVerifiable },
	}
	verifiable := base
	verifiable.Name, verifiable.Verifiable = "verifiable", true
	plain := base
	plain.Name = "plain"
	for _, s := range []Scenario{verifiable, plain} {
		if err := r.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	if s, _ := r.Get("verifiable"); s.Cost != CostAnalytic {
		t.Errorf("verifiable default cost = %q, want %q", s.Cost, CostAnalytic)
	}
	if s, _ := r.Get("plain"); s.Cost != CostClosedForm {
		t.Errorf("non-verifiable default cost = %q, want %q", s.Cost, CostClosedForm)
	}
}

func TestCostHeavier(t *testing.T) {
	if !CostMonteCarlo.Heavier(CostAnalytic) || !CostAnalytic.Heavier(CostClosedForm) {
		t.Error("cost ordering broken: want montecarlo > analytic > closed-form")
	}
	if CostClosedForm.Heavier(CostMonteCarlo) {
		t.Error("closed-form ranked above montecarlo")
	}
	if unknown := Cost("???"); !unknown.Heavier(CostMonteCarlo) {
		t.Error("unknown cost class must rank heaviest (fail throttled, not fast-pathed)")
	}
}
