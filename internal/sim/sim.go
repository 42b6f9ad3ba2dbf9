// Package sim simulates collective search on the star S_m with crash-type
// faulty robots, the model of Theorem 1/Theorem 6 in Kupavskii–Welzl
// (PODC 2018).
//
// In the crash model a faulty robot moves exactly like a healthy one but
// stays silent when it passes the target. Healthy robots report the target
// the moment they reach it, and a report is trusted (crash-faulty robots
// never lie — that is the Byzantine model, handled by internal/byzantine).
// The adversary places the target and chooses which f robots are faulty
// after seeing the strategy; its optimal choice is to silence the first f
// distinct robots that would reach the target, so the detection time of a
// target at point p is the (f+1)-st smallest first-arrival time among the
// robots. The simulator computes exactly that, along with a full event
// timeline for inspection.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// Errors returned by the simulator.
var (
	// ErrBadConfig is returned for invalid simulation parameters.
	ErrBadConfig = errors.New("sim: invalid configuration")
	// ErrNotDetected is returned when the target is never confirmed within
	// the simulated horizon.
	ErrNotDetected = errors.New("sim: target not detected within horizon")
)

// EventKind labels timeline entries.
type EventKind int

const (
	// EventVisit: a robot passes the target location.
	EventVisit EventKind = iota + 1
	// EventReport: a healthy robot reports the target.
	EventReport
	// EventDetect: the target's position is confirmed (first healthy
	// report under the adversarial fault assignment).
	EventDetect
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventVisit:
		return "visit"
	case EventReport:
		return "report"
	case EventDetect:
		return "detect"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one timeline entry.
type Event struct {
	Time   float64
	Kind   EventKind
	Robot  int
	Faulty bool
}

// Result summarizes one simulated search.
type Result struct {
	// Target is the simulated target location.
	Target trajectory.Point
	// DetectionTime is the confirmation time under the adversarial fault
	// assignment (+Inf if not detected within the horizon).
	DetectionTime float64
	// Ratio is DetectionTime / Target.Dist.
	Ratio float64
	// FaultySet lists the robots the adversary crashed (the first f
	// distinct visitors).
	FaultySet []int
	// Detector is the robot whose report confirmed the target.
	Detector int
	// Timeline holds all visit/report/detect events in time order.
	Timeline []Event
}

// Config describes a simulation run.
type Config struct {
	// Strategy is the collective search plan.
	Strategy strategy.Strategy
	// Faults is the number of crash-faulty robots the adversary controls.
	Faults int
	// Target is the hidden target (Dist >= 1 per the problem statement).
	Target trajectory.Point
	// HorizonFactor bounds the simulated time as a multiple of the
	// distance to the target (default 8 if zero): generating trajectories
	// far beyond the detection time is wasted work.
	HorizonFactor float64
}

// Run simulates the search and returns the adversarial-case result.
func Run(cfg Config) (Result, error) {
	if cfg.Strategy == nil {
		return Result{}, fmt.Errorf("%w: nil strategy", ErrBadConfig)
	}
	if cfg.Faults < 0 || cfg.Faults >= cfg.Strategy.K() {
		return Result{}, fmt.Errorf("%w: %d faults with %d robots", ErrBadConfig, cfg.Faults, cfg.Strategy.K())
	}
	if cfg.Target.Ray < 1 || cfg.Target.Ray > cfg.Strategy.M() {
		return Result{}, fmt.Errorf("%w: target ray %d of %d", ErrBadConfig, cfg.Target.Ray, cfg.Strategy.M())
	}
	if !(cfg.Target.Dist >= 1) || math.IsInf(cfg.Target.Dist, 0) {
		return Result{}, fmt.Errorf("%w: target distance %g (problem requires >= 1)", ErrBadConfig, cfg.Target.Dist)
	}
	hf := cfg.HorizonFactor
	if hf == 0 {
		hf = 8
	}
	if hf < 1 {
		return Result{}, fmt.Errorf("%w: horizon factor %g < 1", ErrBadConfig, hf)
	}

	trajs, err := strategy.Trajectories(cfg.Strategy, cfg.Target.Dist*hf)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	return runOnTrajectories(trajs, cfg.Faults, cfg.Target)
}

// Arrival pairs a robot with its first visit time of a target.
type Arrival struct {
	Robot int
	Time  float64
}

// FirstVisits returns the robots of trajs that reach target, in the
// order they first visit it: by time, ties by robot index. It is the
// visit order every line adversary reasons over — the crash adversary
// here, and the Byzantine and evacuation adversaries of the engine's
// line jobs.
func FirstVisits(trajs []*trajectory.Star, target trajectory.Point) []Arrival {
	arrivals := make([]Arrival, 0, len(trajs))
	for r, tr := range trajs {
		if t := tr.FirstVisit(target); !math.IsInf(t, 1) {
			arrivals = append(arrivals, Arrival{Robot: r, Time: t})
		}
	}
	slices.SortFunc(arrivals, func(a, b Arrival) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Robot, b.Robot)
	})
	return arrivals
}

func runOnTrajectories(trajs []*trajectory.Star, faults int, target trajectory.Point) (Result, error) {
	arrivals := FirstVisits(trajs, target)

	res := Result{
		Target:        target,
		DetectionTime: math.Inf(1),
		Ratio:         math.Inf(1),
		Detector:      -1,
	}
	// The adversary silences the first `faults` distinct visitors.
	for i, a := range arrivals {
		faulty := i < faults
		if faulty {
			res.FaultySet = append(res.FaultySet, a.Robot)
		}
		res.Timeline = append(res.Timeline, Event{
			Time: a.Time, Kind: EventVisit, Robot: a.Robot, Faulty: faulty,
		})
		if !faulty && res.Detector < 0 {
			res.Detector = a.Robot
			res.DetectionTime = a.Time
			res.Ratio = a.Time / target.Dist
			res.Timeline = append(res.Timeline,
				Event{Time: a.Time, Kind: EventReport, Robot: a.Robot},
				Event{Time: a.Time, Kind: EventDetect, Robot: a.Robot},
			)
			// Later visits are irrelevant to detection; keep the timeline
			// focused on the decisive prefix.
			break
		}
	}
	if res.Detector < 0 {
		return res, fmt.Errorf("%w: only %d robots reach %v", ErrNotDetected, len(arrivals), target)
	}
	return res, nil
}

// DetectionTime returns just the adversarial detection time for a target,
// given materialized trajectories: the (f+1)-st smallest first-arrival.
func DetectionTime(trajs []*trajectory.Star, target trajectory.Point, faults int) (float64, error) {
	if faults < 0 || faults >= len(trajs) {
		return 0, fmt.Errorf("%w: %d faults with %d robots", ErrBadConfig, faults, len(trajs))
	}
	res, err := runOnTrajectories(trajs, faults, target)
	if err != nil {
		return math.Inf(1), err
	}
	return res.DetectionTime, nil
}
