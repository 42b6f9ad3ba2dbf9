package cover

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Assigned is a truncated covering interval (TPrime, Turn] produced by the
// exact-q assignment: robot Robot's excursion Index is responsible for
// covering exactly (TPrime, Turn], and every point of (1, upTo] lies in
// exactly q assigned intervals. TPrime >= the excursion's t” (Eq. 4), so
// the paper's inequality t_i <= mu*t'_i - (t1+...+t_{i-1}) (Eq. 5) holds.
type Assigned struct {
	Robot, Index int
	// TPrime is the assigned left endpoint (exclusive), the activation
	// position of the sweep.
	TPrime float64
	// Turn is the right endpoint (inclusive), the excursion's turning
	// point t_i.
	Turn float64
	// Lo is the original t''_i, kept for validation.
	Lo float64
}

// intervalHeap is a min-heap of intervals keyed by Hi (earliest deadline
// first).
type intervalHeap []Interval

func (h intervalHeap) Len() int            { return len(h) }
func (h intervalHeap) Less(i, j int) bool  { return h[i].Hi < h[j].Hi }
func (h intervalHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intervalHeap) Push(x interface{}) { *h = append(*h, x.(Interval)) }
func (h *intervalHeap) Pop() interface{} {
	old := *h
	n := len(old)
	iv := old[n-1]
	*h = old[:n-1]
	return iv
}

// floatHeap is a min-heap of float64 (used for active interval deadlines).
type floatHeap []float64

func (h floatHeap) Len() int            { return len(h) }
func (h floatHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h floatHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *floatHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// ExactAssignment truncates the covering intervals into assigned intervals
// so that every point of (1, upTo] is covered exactly q times, as in the
// proofs of Theorems 3 and 6. The sweep activates intervals lazily
// (earliest deadline first) whenever the active multiplicity drops below q;
// activating a later excursion of a robot retires that robot's earlier
// unactivated excursions, which keeps each robot's t' sequence monotone
// (the paper's "skipping turning points"). A robot's excursions activate
// in index order: when the earliest deadline is a robot's later excursion
// while an earlier one of it is still available and unexpired, the
// earlier one activates instead. Where the robot's turns decrease, the
// later excursion is nested in the earlier one, and retiring the earlier
// one would lose a covering; on nondecreasing turns the two orders agree.
//
// It returns ErrCoverageGap (wrapped, with the gap location) if the
// intervals do not actually q-fold cover (1, upTo].
func ExactAssignment(intervals []Interval, q int, upTo float64) ([]Assigned, error) {
	if q < 1 {
		return nil, fmt.Errorf("%w: q = %d", ErrBadTurns, q)
	}
	if !(upTo > 1) || math.IsInf(upTo, 0) || math.IsNaN(upTo) {
		return nil, fmt.Errorf("%w: upTo = %g (want finite > 1)", ErrBadTurns, upTo)
	}

	// Clip to the analyzed range and sort by effective left endpoint.
	pending := make([]Interval, 0, len(intervals))
	for _, iv := range intervals {
		if iv.Hi <= 1 {
			continue
		}
		eff := iv
		if eff.Lo < 1 {
			eff.Lo = 1
		}
		if eff.Lo >= upTo {
			continue
		}
		pending = append(pending, eff)
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].Lo != pending[j].Lo {
			return pending[i].Lo < pending[j].Lo
		}
		return pending[i].Hi < pending[j].Hi
	})

	// Event coordinates: interval endpoints within [1, upTo], plus the
	// range ends. Deficiencies can only arise at event coordinates.
	coordSet := map[float64]struct{}{1: {}, upTo: {}}
	for _, iv := range pending {
		coordSet[iv.Lo] = struct{}{}
		if iv.Hi < upTo {
			coordSet[iv.Hi] = struct{}{}
		}
	}
	coords := make([]float64, 0, len(coordSet))
	for c := range coordSet {
		coords = append(coords, c)
	}
	sort.Float64s(coords)

	var (
		avail    intervalHeap
		active   floatHeap
		floor    = make(map[int]int) // robot -> lowest still-activatable index
		assigned []Assigned
		nextPend = 0
	)
	for _, c := range coords {
		if c >= upTo {
			break
		}
		// Retire active intervals that end at or before c.
		for active.Len() > 0 && active[0] <= c {
			heap.Pop(&active)
		}
		// Admit intervals that have become available.
		for nextPend < len(pending) && pending[nextPend].Lo <= c {
			heap.Push(&avail, pending[nextPend])
			nextPend++
		}
		// Top up to exactly q active intervals.
		for active.Len() < q {
			var chosen *Interval
			for avail.Len() > 0 {
				iv := heap.Pop(&avail).(Interval)
				if iv.Index < floor[iv.Robot] {
					continue // retired by a later activation of this robot
				}
				if iv.Hi <= c {
					continue // expired unused
				}
				if first, ok := firstLive(avail, iv.Robot, floor[iv.Robot], iv.Index, c); ok {
					// first stays in avail and is skipped there once
					// activated; iv stays activatable after it.
					heap.Push(&avail, iv)
					iv = first
				}
				chosen = &iv
				break
			}
			if chosen == nil {
				return nil, fmt.Errorf("%w: multiplicity %d < %d just beyond x = %.12g",
					ErrCoverageGap, active.Len(), q, c)
			}
			floor[chosen.Robot] = chosen.Index + 1
			heap.Push(&active, chosen.Hi)
			assigned = append(assigned, Assigned{
				Robot:  chosen.Robot,
				Index:  chosen.Index,
				TPrime: c,
				Turn:   chosen.Hi,
				Lo:     chosen.Lo,
			})
		}
	}
	return assigned, nil
}

// firstLive returns robot's lowest-index interval among the available
// ones with an index in [from, before) that has not expired at c, if
// there is one.
func firstLive(avail intervalHeap, robot, from, before int, c float64) (Interval, bool) {
	var (
		first Interval
		found bool
	)
	for _, iv := range avail {
		if iv.Robot == robot && iv.Index >= from && iv.Index < before && iv.Hi > c && (!found || iv.Index < first.Index) {
			first, found = iv, true
		}
	}
	return first, found
}

// VerifyAssignment checks the defining properties of an exact-q assignment
// over (1, upTo]: every point covered exactly q times, each robot's TPrime
// sequence nondecreasing, and every TPrime at or beyond the original t”.
func VerifyAssignment(assigned []Assigned, q int, upTo float64) error {
	ivs := make([]Interval, 0, len(assigned))
	lastTPrime := make(map[int]float64)
	for _, a := range assigned {
		if a.TPrime < a.Lo-1e-9 {
			return fmt.Errorf("cover: assigned interval robot %d index %d starts at %g before its t'' %g",
				a.Robot, a.Index, a.TPrime, a.Lo)
		}
		if prev, ok := lastTPrime[a.Robot]; ok && a.TPrime < prev-1e-12 {
			return fmt.Errorf("cover: robot %d t' sequence decreases: %g after %g", a.Robot, a.TPrime, prev)
		}
		lastTPrime[a.Robot] = a.TPrime
		ivs = append(ivs, Interval{Robot: a.Robot, Index: a.Index, Lo: a.TPrime, Hi: a.Turn})
	}
	prof, err := Multiplicity(ivs, upTo)
	if err != nil {
		return err
	}
	for _, s := range prof.Segments {
		if s.Mult != q {
			return fmt.Errorf("%w: multiplicity %d != %d on (%.12g, %.12g]",
				ErrCoverageGap, s.Mult, q, s.Lo, s.Hi)
		}
	}
	return nil
}

// PerRobot groups an assignment by robot, preserving order. The slice index
// is the robot id; robots with no assigned intervals get empty slices (the
// caller supplies the robot count).
func PerRobot(assigned []Assigned, k int) [][]Assigned {
	out := make([][]Assigned, k)
	for _, a := range assigned {
		if a.Robot >= 0 && a.Robot < k {
			out[a.Robot] = append(out[a.Robot], a)
		}
	}
	return out
}
