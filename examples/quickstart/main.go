// Quickstart: search the line with 3 robots, 1 of which is crash-faulty.
//
// This is the smallest end-to-end use of the library: state the problem,
// read off the optimal competitive ratio (Theorem 1 of Kupavskii–Welzl,
// PODC 2018), build the optimal strategy, and run one adversarial search.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trajectory"
)

func main() {
	// Three robots on the line (m = 2 rays), one crash fault.
	problem := core.Problem{M: 2, K: 3, F: 1}

	lambda, err := problem.LowerBound()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal competitive ratio A(3,1) = %.9g  (= (8/3)*4^(1/3) + 1)\n", lambda)

	// The certified value to 25 digits, from the exact rational kernel.
	hp, err := problem.HighPrecision(128)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certified: %s\n\n", hp.Lambda0.Lo.Text('g', 25))

	// Hide a target at distance 7 on the negative half-line (ray 2) and
	// let the adversary crash the first robot that would find it.
	res, err := problem.Solve(trajectory.Point{Ray: 2, Dist: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target: %v\n", res.Target)
	fmt.Printf("adversary crashed robots %v; robot %d confirmed the target\n",
		res.FaultySet, res.Detector)
	fmt.Printf("detection time %.4f -> ratio %.6f (within lambda = %.6f)\n",
		res.DetectionTime, res.Ratio, lambda)

	// The worst case over all target positions matches the bound.
	ev, err := problem.VerifyUpperOn(context.Background(), engine.New(0), 1e5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact worst case over [1, 1e5): %.9g (sup approached at ray %d, x -> %.4g+)\n",
		ev.WorstRatio, ev.WorstRay, ev.WorstX)
}
