package contract

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/strategy"
)

// This file implements the hybrid-algorithm interpretation quoted in
// Section 3 (from Kao–Ma–Sipser–Yin): a single computer with k disjoint
// memory areas runs m basic algorithms; in the worst case only one of them
// solves the problem, after x units of computation. The hybrid runs basic
// algorithms in slices; a slice of algorithm i can resume from the depth
// stored in a memory area that still holds algorithm i's state, and must
// restart from zero otherwise.
//
// Serializing the paper's k-robot cyclic search strategy gives a natural
// hybrid: memory area r replays robot r's excursions in the global order
// of the parallel execution, and an excursion to depth d on ray i becomes
// a slice of algorithm i up to depth d. Because the cyclic strategy
// changes ray every excursion, slices effectively restart, and the
// serialized solve time just past depth alpha^n is the full geometric sum
// of all earlier slices: the slowdown of the exponential family is
//
//	alpha^m/(alpha - 1) + 1,
//
// which HybridSlowdown measures exactly and the tests pin against this
// closed form (ExpHybridSlowdown).

// slice is one serialized computation slice.
type slice struct {
	algorithm int     // ray index, 0-based here
	depth     float64 // run the algorithm (from its resume point) to depth
	cost      float64 // serialized cost of the slice
	start     float64 // serialized time at which the slice begins
}

// HybridResult reports the measured slowdown of a serialized hybrid.
type HybridResult struct {
	// Slowdown is sup over (algorithm, solve depth x) of serialized solve
	// time over x, within the horizon window.
	Slowdown float64
	// WorstAlgorithm and WorstDepth locate the supremum (right-limit).
	WorstAlgorithm int
	WorstDepth     float64
	// Slices is the number of serialized slices examined.
	Slices int
}

// HybridSlowdown serializes the k-robot m-ray cyclic exponential strategy
// (f = 0) into a hybrid algorithm with k memory areas and measures its
// exact slowdown over solve depths in [1, horizon).
func HybridSlowdown(m, k int, horizon float64) (HybridResult, error) {
	s, err := strategy.NewCyclicExponential(m, k, 0)
	if err != nil {
		return HybridResult{}, fmt.Errorf("contract: %w", err)
	}
	return hybridSlowdownOf(s, horizon)
}

// HybridSlowdownAlpha is HybridSlowdown with an explicit base.
func HybridSlowdownAlpha(m, k int, alpha, horizon float64) (HybridResult, error) {
	s, err := strategy.NewCyclicExponentialAlpha(m, k, 0, alpha)
	if err != nil {
		return HybridResult{}, fmt.Errorf("contract: %w", err)
	}
	return hybridSlowdownOf(s, horizon)
}

func hybridSlowdownOf(s *strategy.CyclicExponential, horizon float64) (HybridResult, error) {
	if !(horizon > 1) || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return HybridResult{}, fmt.Errorf("%w: horizon=%g", ErrBadParams, horizon)
	}
	m, k := s.M(), s.K()

	// Collect every robot's excursions tagged with the parallel start
	// time, then serialize in that order.
	type tagged struct {
		start float64
		ray   int
		depth float64
		robot int
	}
	var all []tagged
	for r := 0; r < k; r++ {
		rounds, err := s.AppendRounds(nil, r, horizon)
		if err != nil {
			return HybridResult{}, fmt.Errorf("contract: %w", err)
		}
		t := 0.0
		for _, rd := range rounds {
			all = append(all, tagged{start: t, ray: rd.Ray - 1, depth: rd.Turn, robot: r})
			t += 2 * rd.Turn
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })

	// Memory areas: area r holds (algorithm, depth) of robot r's last
	// slice; a slice resumes only if its area still holds its algorithm.
	type memState struct {
		algorithm int
		depth     float64
	}
	areas := make([]memState, k)
	for i := range areas {
		areas[i] = memState{algorithm: -1}
	}
	var (
		slices []slice
		now    float64
	)
	for _, ex := range all {
		cost := ex.depth
		if areas[ex.robot].algorithm == ex.ray && areas[ex.robot].depth < ex.depth {
			cost = ex.depth - areas[ex.robot].depth
		}
		slices = append(slices, slice{
			algorithm: ex.ray,
			depth:     ex.depth,
			cost:      cost,
			start:     now,
		})
		now += cost
		areas[ex.robot] = memState{algorithm: ex.ray, depth: ex.depth}
	}

	// Worst case: the solving algorithm i needs depth x; the hybrid
	// solves at the serialized moment its first slice on i with depth >=
	// x passes x. For x just above a slice depth b the solver is the NEXT
	// deeper slice on i, so the supremum sits at right-limits of slice
	// depths (and at x = 1).
	maxDepth := make([]float64, m)
	type ref struct {
		depth  float64
		at     float64 // serialized time when the slice reaches `depth`...
		resume float64 // depth the slice resumed from
		start  float64
	}
	perAlg := make([][]ref, m)
	for _, sl := range slices {
		if sl.depth > maxDepth[sl.algorithm] {
			maxDepth[sl.algorithm] = sl.depth
			perAlg[sl.algorithm] = append(perAlg[sl.algorithm], ref{
				depth:  sl.depth,
				resume: sl.depth - sl.cost,
				start:  sl.start,
			})
		}
	}

	res := HybridResult{Slowdown: -1, Slices: len(slices)}
	solveTime := func(alg int, x float64, strict bool) (float64, bool) {
		refs := perAlg[alg]
		idx := sort.Search(len(refs), func(i int) bool {
			if strict {
				return refs[i].depth > x
			}
			return refs[i].depth >= x
		})
		if idx == len(refs) {
			return 0, false
		}
		r := refs[idx]
		// Within the slice, reaching x costs x - resume after start.
		from := r.resume
		if from > x {
			from = 0 // defensive: resumed beyond x cannot happen for first-reaching slices
		}
		return r.start + (x - from), true
	}
	for alg := 0; alg < m; alg++ {
		cands := map[float64]struct{}{1: {}}
		for _, r := range perAlg[alg] {
			if r.depth >= 1 && r.depth < horizon {
				cands[r.depth] = struct{}{}
			}
		}
		for b := range cands {
			if t, ok := solveTime(alg, b, false); ok {
				if ratio := t / b; ratio > res.Slowdown {
					res.Slowdown, res.WorstAlgorithm, res.WorstDepth = ratio, alg+1, b
				}
			} else {
				return HybridResult{}, fmt.Errorf("%w: algorithm %d at depth %g", ErrNoCompletion, alg+1, b)
			}
			if t, ok := solveTime(alg, b, true); ok {
				if ratio := t / b; ratio > res.Slowdown {
					res.Slowdown, res.WorstAlgorithm, res.WorstDepth = ratio, alg+1, b
				}
			}
		}
	}
	return res, nil
}

// ExpHybridSlowdown returns the closed-form slowdown of the serialized
// cyclic exponential hybrid with base alpha, for coprime m and k:
//
//	alpha^m / (alpha - 1) + 1,
//
// the value HybridSlowdown converges to from below as the window grows.
// With gcd(m,k) = 1 the excursion exponents {k*l + m*(r+1)} enumerate the
// integers exactly once, so the serialized prefix sums are the plain
// geometric series. For gcd(m,k) > 1 exponent classes repeat across robots
// and serialization tie-breaking enters the constant; no simple closed
// form holds, and the function reports ErrBadParams (use the measured
// HybridSlowdown instead).
func ExpHybridSlowdown(m, k int, alpha float64) (float64, error) {
	if m < 2 || k < 1 || !(alpha > 1) {
		return 0, fmt.Errorf("%w: m=%d k=%d alpha=%g", ErrBadParams, m, k, alpha)
	}
	if gcd(m, k) != 1 {
		return 0, fmt.Errorf("%w: closed form requires gcd(m,k) = 1, got m=%d k=%d", ErrBadParams, m, k)
	}
	return math.Pow(alpha, float64(m))/(alpha-1) + 1, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
