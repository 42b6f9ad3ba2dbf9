package registry

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/bounds"
	"repro/internal/engine"
)

// scanBox is the small parameter box the conformance test scans.
func scanBox() [][3]int {
	var out [][3]int
	for m := 1; m <= 4; m++ {
		for k := 1; k <= 4; k++ {
			for f := 0; f <= 3; f++ {
				out = append(out, [3]int{m, k, f})
			}
		}
	}
	return out
}

// TestConformance is the registry-wide round-trip contract: every
// registered scenario is self-describing, validates at least one
// triple in the small box, returns consistent bounds wherever both
// exist, and its advertised capabilities (Verifiable, Simulatable)
// are backed by constructors that succeed on at least one valid
// triple. On every triple of the box Validate rejects, each bound
// function answers Validate's error and each job constructor
// ErrNotVerifiable wrapping it: the scope is applied in one place.
func TestConformance(t *testing.T) {
	ctx := context.Background()
	scenarios := Default().All()
	if len(scenarios) == 0 {
		t.Fatal("default registry is empty")
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if sc.Description == "" {
				t.Error("missing description")
			}
			if len(sc.Params) == 0 {
				t.Error("missing parameter schema")
			}
			for _, p := range sc.Params {
				if p.Name == "" || p.Doc == "" || (p.Kind != KindInt && p.Kind != KindFloat) {
					t.Errorf("malformed param %+v", p)
				}
			}
			if sc.Simulatable != (sc.SimulateJob != nil) {
				t.Errorf("Simulatable = %v but SimulateJob nil-ness says %v", sc.Simulatable, sc.SimulateJob != nil)
			}
			// Admission control and the catalog depend on every entry
			// declaring a ranked cost class and a known objective; an
			// unranked cost is throttled as heaviest (see Cost.Heavier)
			// rather than served, and an unknown objective mislabels
			// every number the scenario answers with.
			if sc.Cost != CostClosedForm && sc.Cost != CostAnalytic && sc.Cost != CostMonteCarlo {
				t.Errorf("cost class %q is not one of the ranked classes", sc.Cost)
			}
			if sc.Objective != ObjectiveFind && sc.Objective != ObjectiveEvacuate {
				t.Errorf("objective %q is not a declared objective", sc.Objective)
			}
			var valid int
			var verified, simulated bool
			for _, tr := range scanBox() {
				m, k, f := tr[0], tr[1], tr[2]
				req := Request{M: m, K: k, F: f, Horizon: 1000, Dist: 5}
				if verr := sc.Validate(m, k, f); verr != nil {
					_, lerr := sc.LowerBound(m, k, f)
					_, uerr := sc.UpperBound(m, k, f)
					_, cerr := sc.ClosedForm(req)
					for name, err := range map[string]error{"LowerBound": lerr, "UpperBound": uerr, "ClosedForm": cerr} {
						if err == nil || err.Error() != verr.Error() {
							t.Errorf("%s(%d,%d,%d) out of scope = %v, want %v", name, m, k, f, err, verr)
						}
					}
					want := fmt.Sprintf("%v: %v", ErrNotVerifiable, verr)
					jobs := map[string]func(context.Context, Request) (engine.Job, error){"VerifyJob": sc.VerifyJob}
					if sc.SimulateJob != nil {
						jobs["SimulateJob"] = sc.SimulateJob
					}
					for name, build := range jobs {
						if _, err := build(ctx, req); !errors.Is(err, ErrNotVerifiable) || err.Error() != want {
							t.Errorf("%s(%d,%d,%d) out of scope = %v, want %s", name, m, k, f, err, want)
						}
					}
					continue
				}
				valid++
				lower, lerr := sc.LowerBound(m, k, f)
				if lerr != nil {
					// The unsolvable regime (f >= k) validates — it is a
					// legitimate classification — but has no finite bound.
					if !errors.Is(lerr, bounds.ErrUnsolvable) {
						t.Errorf("LowerBound(%d,%d,%d) on a validated triple: %v", m, k, f, lerr)
					}
					continue
				}
				if sc.HasUpperBound {
					if upper, uerr := sc.UpperBound(m, k, f); uerr == nil && upper < lower-1e-9 {
						t.Errorf("UpperBound(%d,%d,%d) = %g below LowerBound %g", m, k, f, upper, lower)
					}
				} else {
					if _, uerr := sc.UpperBound(m, k, f); !errors.Is(uerr, ErrNoUpperBound) {
						t.Errorf("UpperBound(%d,%d,%d) without HasUpperBound: %v", m, k, f, uerr)
					}
				}
				if job, err := sc.VerifyJob(ctx, req); err == nil {
					verified = true
					if !sc.Verifiable {
						t.Errorf("VerifyJob(%d,%d,%d) succeeded but Verifiable is false", m, k, f)
					}
					if job == nil {
						t.Errorf("VerifyJob(%d,%d,%d) returned a nil job without error", m, k, f)
					}
				}
				if sc.SimulateJob != nil {
					if job, err := sc.SimulateJob(ctx, req); err == nil {
						simulated = true
						if job == nil {
							t.Errorf("SimulateJob(%d,%d,%d) returned a nil job without error", m, k, f)
						}
					}
				}
				if _, err := sc.ClosedForm(req); err != nil {
					t.Errorf("ClosedForm(%d,%d,%d): %v", m, k, f, err)
				}
			}
			if valid == 0 {
				t.Fatal("no valid triple in the scan box m<=4, k<=4, f<=3")
			}
			if sc.Verifiable && !verified {
				t.Error("Verifiable scenario has no verifiable triple in the scan box")
			}
			if sc.Simulatable && !simulated {
				t.Error("Simulatable scenario has no simulatable triple in the scan box")
			}
		})
	}
}
