package potential

import (
	"fmt"
	"math"

	"repro/internal/cover"
)

// This file implements the ORC (one-ray cover with returns) setting of
// Section 3.1, proving Eq. (10): C(k,q) >= 2*mu(q,k) + 1. The potential is
// Eq. (15),
//
//	f(P) = prod_r [ L_r^(q-k) * (b_r)^k / prod_{y in A} y ],
//
// with b_r the beginning of robot r's first interval beyond the prefix.
// The proof splits on the growth of consecutive assigned starts:
//
//   - Case 1: every robot's consecutive assigned starts satisfy
//     t'_{i+1}/t'_i <= C. Then f(P) <= C^(qk) * mu^((q-k)k), and since each
//     step multiplies f by at least delta > 1, a contradiction arrives in
//     finitely many steps.
//
//   - Case 2: some robot has a jump t'_{i+1}/t'_i >= C. Then the window
//     [mu*t'_i, C*t'_i] receives at most one covering from that robot, so
//     the other k-1 robots (q-1)-fold cover it; rescaling by mu*t'_i gives
//     an instance of the same problem with (k-1, q-1), handled by
//     induction. RunORC detects the jump and RefuteORCStrategy performs
//     the recursion explicitly.

// Case2Info describes a detected Case-2 jump.
type Case2Info struct {
	// Robot is the jumping robot.
	Robot int
	// TPrime and NextTPrime are the consecutive assigned starts with
	// NextTPrime/TPrime >= C.
	TPrime, NextTPrime float64
	// WindowLo and WindowHi delimit the (q-1)-fold covered window
	// [mu*TPrime, NextTPrime] handed to the recursion.
	WindowLo, WindowHi float64
}

// RunORC replays an exact-q ORC assignment through the Eq. (15) potential.
// caseC is the Case-1/Case-2 split constant: consecutive assigned starts of
// one robot jumping by a factor >= caseC trigger Case 2, reported in the
// certificate's Sub == nil and Case2 return. caseC must exceed mu, so
// that every Case-2 window (mu*t', next] is non-empty. The assignment
// must be ordered by TPrime (as produced by cover.ExactAssignment).
func RunORC(assigned []cover.Assigned, k, q int, lambda, caseC float64) (Certificate, *Case2Info, error) {
	if caseC <= 1 {
		return Certificate{}, nil, fmt.Errorf("%w: caseC = %g (need > 1)", ErrBadParams, caseC)
	}
	if mu := (lambda - 1) / 2; caseC <= mu {
		return Certificate{}, nil, fmt.Errorf("%w: caseC = %g <= mu = %g (the case-2 window would be empty)", ErrBadParams, caseC, mu)
	}
	if k < 1 || q <= k {
		return Certificate{}, nil, fmt.Errorf("%w: k=%d q=%d (need 1 <= k < q)", ErrBadParams, k, q)
	}
	if err := checkRun(assigned, k, lambda); err != nil {
		return Certificate{}, nil, err
	}
	perRobot := cover.PerRobot(assigned, k)
	firstBeg := make([]float64, k)
	for r, list := range perRobot {
		if len(list) == 0 {
			return Certificate{}, nil, fmt.Errorf("%w: robot %d", ErrPrefixTooShort, r)
		}
		if firstBeg[r] = list[0].TPrime; !(firstBeg[r] > 0) {
			return Certificate{}, nil, fmt.Errorf("%w: robot %d first beginning %g", ErrBadParams, r, firstBeg[r])
		}
	}
	e := newEngine(orc(k, q), lambda, firstBeg)
	// Case-1 cap: f <= C^(qk) * mu^((q-k)k).
	e.cert.LogFBound = float64(k*q)*math.Log(caseC) + float64((q-k)*k)*math.Log(e.cert.Mu)

	pos := make([]int, k) // per-robot index of the interval being processed
	for _, a := range assigned {
		list := perRobot[a.Robot]
		idx := pos[a.Robot]
		if idx+1 >= len(list) {
			// The robot's lookahead b' is beyond the finite assignment;
			// the replayable prefix ends here.
			break
		}
		next := list[idx+1].TPrime
		if next >= caseC*a.TPrime {
			finalizeCertificate(&e.cert)
			return e.cert, &Case2Info{
				Robot:      a.Robot,
				TPrime:     a.TPrime,
				NextTPrime: next,
				WindowLo:   e.cert.Mu * a.TPrime,
				WindowHi:   next,
			}, nil
		}
		// b_r is the start of a's own interval by construction; its
		// successor b' must not begin before it.
		if !(next >= a.TPrime) {
			return e.cert, nil, fmt.Errorf("%w: robot %d lookahead %.12g before current start %.12g",
				ErrInvalidStep, a.Robot, next, a.TPrime)
		}
		if err := e.step(a, next); err != nil {
			return e.cert, nil, err
		}
		pos[a.Robot]++
	}
	finalizeCertificate(&e.cert)
	return e.cert, nil, nil
}

// RefuteORCStrategy runs the full Eq. (10) pipeline against a concrete
// collective ORC strategy (per-robot excursion distances): extract covering
// intervals at ratio lambda, build the exact-q assignment over (1, upTo],
// replay the potential argument with the given Case constant, and recurse
// per the paper's induction when a Case-2 jump is found.
func RefuteORCStrategy(turnsPerRobot [][]float64, q int, lambda, upTo, caseC float64) (Certificate, error) {
	return refuteORC(turnsPerRobot, q, lambda, upTo, caseC, 0)
}

func refuteORC(turnsPerRobot [][]float64, q int, lambda, upTo, caseC float64, depth int) (Certificate, error) {
	k := len(turnsPerRobot)
	if k == 0 {
		return Certificate{}, fmt.Errorf("%w: no robots", ErrBadParams)
	}
	if q < 1 {
		return Certificate{}, fmt.Errorf("%w: q = %d", ErrBadParams, q)
	}
	if depth > k {
		return Certificate{}, fmt.Errorf("%w: recursion exceeded robot count", ErrBadParams)
	}
	return refute(turnsPerRobot, orc(k, q), lambda, upTo, cover.ORCCovIntervals, func(assigned []cover.Assigned) (Certificate, error) {
		if q <= k {
			// The Eq. (15) potential needs q > k (its exponent q-k would
			// vanish), and the Eq. (10) lower bound does not constrain this
			// regime: with at least as many robots as required coverings the
			// covering either exists (verified above) or gapped.
			return Certificate{
				Setting: "orc",
				K:       k,
				Fold:    q,
				Lambda:  lambda,
				Mu:      (lambda - 1) / 2,
				Steps:   len(assigned),
				Verdict: VerdictBounded,
			}, nil
		}
		cert, case2, err := RunORC(assigned, k, q, lambda, caseC)
		if err != nil || case2 == nil {
			return cert, err
		}
		// Case 2: the jumping robot covers the window at most once; the
		// other robots must (q-1)-fold cover it. Rescale by mu*t' so the
		// window becomes (1, C/mu] and recurse with k-1 robots. A lone
		// robot never gets here: the q-1 >= 1 intervals active beside
		// its excursion i at t' are earlier excursions of its own, so
		// the next activation comes by their ends, at most
		// S_{i-1} = mu*Lo <= mu*t' < C*t'.
		scale := case2.WindowLo
		subTurns := make([][]float64, 0, k-1)
		for r, turns := range turnsPerRobot {
			if r == case2.Robot {
				continue
			}
			scaled := make([]float64, len(turns))
			for i, t := range turns {
				scaled[i] = t / scale
			}
			subTurns = append(subTurns, scaled)
		}
		subUpTo := case2.WindowHi / scale
		if subUpTo <= 1 {
			subUpTo = 1 + 1e-6
		}
		sub, err := refuteORC(subTurns, q-1, lambda, subUpTo, caseC, depth+1)
		if err != nil {
			return cert, err
		}
		cert.Sub = &sub
		cert.Verdict = sub.Verdict
		return cert, nil
	})
}
