// mrays: fault-tolerant search on m rays (Theorem 6) — the scenario that
// resolves the decades-old parallel-search question for f = 0 and its
// faulty generalization.
//
// Four robots explore a star of three corridors ("rays") from a common
// junction; one robot is crash-faulty. The example compares the naive
// corridor-partition baseline with the paper's cyclic exponential strategy
// and demonstrates the lower-bound refutation below lambda0.
//
//	go run ./examples/mrays
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/potential"
	"repro/internal/strategy"
	"repro/internal/trajectory"
)

func main() {
	problem := core.Problem{M: 3, K: 4, F: 1}

	lambda, err := problem.LowerBound()
	if err != nil {
		log.Fatal(err)
	}
	q, err := problem.Q()
	if err != nil {
		log.Fatal(err)
	}
	rho, err := problem.Rho()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("m=3 corridors, k=4 robots, f=1 crash fault\n")
	fmt.Printf("q = m(f+1) = %d, rho = q/k = %.4g\n", q, rho)
	fmt.Printf("optimal ratio A(3,4,1) = 2*rho^rho/(rho-1)^(rho-1) + 1 = %.9g\n\n", lambda)

	// The optimal cooperative strategy...
	opt, err := problem.OptimalStrategy()
	if err != nil {
		log.Fatal(err)
	}
	evOpt, err := adversary.ExactRatio(context.Background(), opt, 1, 1e5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cyclic exponential (alpha = %.6g): measured worst ratio %.9g\n",
		opt.Alpha(), evOpt.WorstRatio)

	// ...versus the fault-free corridor-partition baseline (k robots do
	// not even tolerate a fault when split; compare at f = 0 for both).
	faultFree := core.Problem{M: 3, K: 2, F: 0}
	optFF, err := faultFree.OptimalStrategy()
	if err != nil {
		log.Fatal(err)
	}
	evFF, err := adversary.ExactRatio(context.Background(), optFF, 0, 1e5)
	if err != nil {
		log.Fatal(err)
	}
	base, err := strategy.NewRaySplit(3, 2)
	if err != nil {
		log.Fatal(err)
	}
	evBase, err := adversary.ExactRatio(context.Background(), base, 0, 1e5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfault-free comparison (m=3, k=2):\n")
	fmt.Printf("  cooperative cyclic strategy: %.6g\n", evFF.WorstRatio)
	fmt.Printf("  corridor-partition baseline: %.6g (worse: each splitter searches alone)\n\n",
		evBase.WorstRatio)

	// One concrete search.
	res, err := problem.Solve(trajectory.Point{Ray: 3, Dist: 2.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target %v: crashed %v, detected by robot %d at t=%.4f (ratio %.4f)\n\n",
		res.Target, res.FaultySet, res.Detector, res.DetectionTime, res.Ratio)

	// The lower bound, executably: 5%% below lambda0 the covering that any
	// valid strategy would need develops a machine-checked contradiction.
	cert, err := problem.RefuteBelow(context.Background(), 0.95, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refutation at 0.95*lambda0: verdict %v", cert.Verdict)
	if cert.GapDetail != "" {
		fmt.Printf(" (%s)", cert.GapDetail)
	}
	fmt.Println()
	if cert.Verdict == potential.VerdictBounded {
		log.Fatal("unexpected: covering below lambda0 should not verify")
	}
}
