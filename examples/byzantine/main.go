// byzantine: search with robots that can lie.
//
// The paper's Byzantine contribution is the transfer principle
// B(k,f) >= A(k,f): silence is legal Byzantine behavior, so every crash
// lower bound carries over — improving B(3,1) from 3.93 to 5.2333. This
// example shows the transfer numerically and then runs the explicit
// observation-log semantics: an adversarial liar plants a false claim, and
// the consistency-based observer is never fooled (soundness), while the
// truth still emerges.
//
//	go run ./examples/byzantine
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/bounds"
	"repro/internal/byzantine"
	"repro/internal/core"
	"repro/internal/strategy"
	"repro/internal/trajectory"
)

func main() {
	// The transfer bound.
	improved := bounds.B31Improved()
	fmt.Printf("B(3,1) lower bounds: prior %.4g  ->  paper %.9g (via A(3,1))\n\n",
		bounds.B31Prior, improved)

	p := core.Problem{M: 2, K: 3, F: 1, Model: "byzantine"}
	lb, err := p.LowerBound()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.UpperBound(); err == nil {
		log.Fatal("Byzantine upper bound should be unknown")
	}
	fmt.Printf("core.Problem{Model: \"byzantine\"}: lower bound %.9g, upper bound open\n\n", lb)

	// Explicit Byzantine semantics: 3 robots run the optimal crash
	// strategy; robot 2 is a liar who claims a false location it passes.
	s, err := strategy.NewCyclicExponential(2, 3, 1)
	if err != nil {
		log.Fatal(err)
	}
	trajs, err := strategy.Trajectories(s, 600)
	if err != nil {
		log.Fatal(err)
	}
	target := trajectory.Point{Ray: 1, Dist: 6}
	wrong := trajectory.Point{Ray: 2, Dist: 2}
	lieTime := trajs[2].FirstVisit(wrong)
	if math.IsInf(lieTime, 1) {
		log.Fatal("setup: liar never reaches the planted location")
	}
	robots := []byzantine.Robot{
		{Traj: trajs[0], Behavior: byzantine.Honest},
		{Traj: trajs[1], Behavior: byzantine.Honest},
		{Traj: trajs[2], Behavior: byzantine.Liar,
			Lies: []byzantine.Claim{{Time: lieTime, Loc: wrong}}},
	}
	sc, err := byzantine.NewScenario(robots, target, 1)
	if err != nil {
		log.Fatal(err)
	}

	candidates := []trajectory.Point{target, wrong, {Ray: 1, Dist: 2}, {Ray: 2, Dist: 6}}
	fmt.Printf("true target %v; liar claims %v at t=%.4f\n", target, wrong, lieTime)

	if at, loc, bad := sc.SoundnessViolation(candidates, 5000); bad {
		log.Fatalf("UNSOUND: observer certain of %v at t=%.4f", loc, at)
	}
	fmt.Println("soundness: observer is never certain of a wrong location")

	dt, ok := sc.DetectionTime(candidates, 5000)
	if !ok {
		log.Fatal("truth never emerged within the horizon")
	}
	fmt.Printf("despite the lie, the observer is certain of the true target at t=%.4f (ratio %.4f)\n",
		dt, dt/target.Dist)

	// Compare with the crash model (first healthy report). Note that the
	// Byzantine observer above works against a FINITE candidate list — a
	// discretization that can make certainty look fast; over the true
	// continuum of candidate locations, unvisited points stay consistent
	// and Byzantine certainty is at least as slow as crash detection,
	// which is the content of B(k,f) >= A(k,f).
	crash := core.Problem{M: 2, K: 3, F: 1}
	res, err := crash.Solve(target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash-model detection of the same target: t=%.4f (ratio %.4f)\n",
		res.DetectionTime, res.Ratio)
}
