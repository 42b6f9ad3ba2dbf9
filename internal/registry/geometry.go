// geometry.go registers the two scenarios the geometry-generic core
// exists for: shoreline search in the plane (the target is a line, not
// a point — Acharjee, Georgiou, Kundu, Srinivasan, "Lower Bounds for
// Shoreline Searching with 2 or More Robots") and search-and-evacuation
// on the line with a near majority of crash-faulty agents (Czyzowicz,
// Killick, Kranakis, Stachowiak). The first leaves line geometry, the
// second leaves the find objective; both resolve through the same
// Scenario surface as every other model, and their engine jobs carry
// geometry/objective cache tags so their answers can never be confused
// with line find answers for the same numeric parameters.
package registry

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/engine"
)

// validateShoreline scopes the shoreline scenario: m = 2 is the
// AMBIENT dimension (the plane — there are no rays for a line target),
// and the spread-ray strategy finds every shoreline despite f crashes
// exactly when k > 2(f+1) (with k <= 2(f+1) some shoreline direction
// defeats any f+1 of the k rays: their headings all sit >= pi/2 from
// its normal).
func validateShoreline(m, k, f int) error {
	if m != 2 {
		return fmt.Errorf("registry: shoreline is planar search, m=2 is the ambient dimension (got m=%d)", m)
	}
	if k < 1 || f < 0 {
		return fmt.Errorf("registry: shoreline needs k >= 1 robots and f >= 0 faults (got k=%d f=%d)", k, f)
	}
	if k <= 2*(f+1) {
		return fmt.Errorf("registry: shoreline with f=%d crash faults needs k > 2(f+1) = %d robots (got k=%d)", f, 2*(f+1), k)
	}
	return nil
}

// shorelineBound is the family-optimal worst ratio of the spread-ray
// strategy, bounds.Shoreline. Tight within straight-ray strategies
// (quoted the way pfaulty-halfline quotes its geometric-family
// optimum), and served as both bounds of the scenario.
func shorelineBound(m, k, f int) (float64, error) {
	return bounds.Shoreline(k, f)
}

// shorelineScenario is the planar shoreline-search model: k unit-speed
// robots from a common origin must detect a LINE at unknown distance
// and orientation while f of them crash silently. The verify job is
// the exact planar adversary sweep (adversary.ShorelineEvaluator); the
// simulate job drives the actual planar trajectories against a heading
// sweep at one target distance.
func shorelineScenario() Scenario {
	return Scenario{
		Name:        "shoreline",
		Description: "planar shoreline search: k spread rays must hit a line of unknown distance/orientation despite f crashes; family-optimal ratio sec((f+1)*pi/k) (Acharjee–Georgiou–Kundu–Srinivasan)",
		Params: []Param{
			{Name: "m", Kind: KindInt, Doc: "ambient dimension (must be 2: the plane; the target is a line, not a point on a ray)"},
			{Name: "k", Kind: KindInt, Doc: "number of robots (k > 2(f+1) for coverage)"},
			{Name: "f", Kind: KindInt, Doc: "number of crash-faulty robots"},
		},
		Verifiable: true,
		Cost:       CostAnalytic,
		Objective:  ObjectiveFind,
		Validate:   validateShoreline,
		LowerBound: shorelineBound,
		UpperBound: shorelineBound,
		VerifyJob: func(ctx context.Context, req Request) (engine.Job, error) {
			return engine.ShorelineWorst{K: req.K, F: req.F, Horizon: req.Horizon}, nil
		},
		SimulateJob: func(ctx context.Context, req Request) (engine.Job, error) {
			return engine.ShorelineSim{K: req.K, F: req.F, Dist: req.Dist}, nil
		},
	}
}

// evacuationPoints is the distance-grid size of the evacuation verify
// job's worst-over-grid scan (the byzantine-line precedent).
const evacuationPoints = 12

// validateEvacuationLine scopes the evacuation scenario to its model:
// the line (m = 2) with k = 2f+1 robots — one more healthy robot than
// faulty ones, the near-majority-faulty setting of Czyzowicz, Killick,
// Kranakis and Stachowiak. k = 2f+1 sits in the search regime
// f < k < 2(f+1) for every f >= 1, so the optimal cyclic strategy
// under evaluation always exists.
func validateEvacuationLine(m, k, f int) error {
	if err := classify(m, k, f); err != nil {
		return err
	}
	if m != 2 {
		return fmt.Errorf("registry: evacuation-line is the infinite-line model m=2 (got m=%d)", m)
	}
	if f < 1 || k != 2*f+1 {
		return fmt.Errorf("registry: evacuation-line is the near-majority-faulty setting k = 2f+1 with f >= 1 (got k=%d f=%d)", k, f)
	}
	return nil
}

// evacuationLineScenario is search-and-evacuation on the line with
// crash faults: the target must not only be found but announced
// (wireless) and reached by every healthy robot, and the adversary
// crashes up to f of the k = 2f+1 robots to delay the announcement.
// The lower bound is the search transfer E(k,f) >= A(2,k,f) —
// evacuation ends no earlier than detection — with no matching upper
// bound claimed (the gather term exceeds it at every finite distance).
// The measured quantity is the exact evacuation ratio of the optimal
// crash-search strategy under the worst prefix-fault adversary.
func evacuationLineScenario() Scenario {
	return Scenario{
		Name:        "evacuation-line",
		Description: "search-and-evacuation on the line, k = 2f+1 robots with f crash-faulty (Czyzowicz–Killick–Kranakis–Stachowiak): transfer lower bound E(k,f) >= A(2,k,f), simulator measures wireless evacuation of the optimal search strategy",
		Params:      baseParams(),
		Verifiable:  true,
		Rays:        true,
		Cost:        CostMonteCarlo,
		Objective:   ObjectiveEvacuate,
		Validate:    validateEvacuationLine,
		LowerBound:  lineTransferBound,
		VerifyJob: func(ctx context.Context, req Request) (engine.Job, error) {
			return engine.EvacuationWorst{K: req.K, F: req.F, Horizon: req.Horizon, Points: evacuationPoints}, nil
		},
		SimulateJob: func(ctx context.Context, req Request) (engine.Job, error) {
			return engine.EvacuationSim{K: req.K, F: req.F, Dist: req.Dist}, nil
		},
	}
}
