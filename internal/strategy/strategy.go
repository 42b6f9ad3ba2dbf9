// Package strategy constructs the search strategies of Kupavskii–Welzl
// (PODC 2018) and the transformations on strategies used in its proofs.
//
// The central constructor is the cyclic exponential strategy of the paper's
// appendix: k robots visit the m rays in cyclic order, the turning points
// forming a geometric progression with base alpha. Robot r's l-th excursion
// (l runs over the integers starting at 1-2m, matching the paper's j = -2
// start) goes out to alpha^(k*l + m*r) on ray ((l-1) mod m) + 1. With
// alpha = (q/(q-k))^(1/k), q = m(f+1), the strategy achieves the optimal
// competitive ratio lambda0(q,k) = 2*alpha^q/(alpha^k-1) + 1 of Theorem 6.
//
// For m = 2 the cyclic strategy alternates between the two half-lines and is
// exactly the optimal line strategy (PODC'16); with k = 1, f = 0 it
// degenerates to the classical cow-path doubling.
//
// The package also implements the strategy standardization of the Theorem 3
// proof: rewriting an arbitrary zigzag turning sequence into the
// nondecreasing alternating standard form without reducing what the robot
// +-covers.
package strategy

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/bounds"
	"repro/internal/strategy/program"
	"repro/internal/trajectory"
)

// Errors returned by strategy constructors.
var (
	// ErrBadParams is returned for invalid strategy parameters.
	ErrBadParams = errors.New("strategy: invalid parameters")
	// ErrTooManyRounds is returned when a horizon would require more
	// excursions than the configured safety cap.
	ErrTooManyRounds = errors.New("strategy: horizon requires too many rounds")
)

// maxRounds caps the number of excursions generated for a single robot, as
// a guard against pathological horizons (alpha near 1 with huge horizon).
const maxRounds = 1 << 20

// Strategy describes a collective search plan for k robots on the star S_m.
// Implementations are deterministic and stateless: AppendRounds may be
// called for any robot and horizon in any order.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// M returns the number of rays.
	M() int
	// K returns the number of robots.
	K() int
	// AppendRounds appends robot r's excursions (r in 0..K-1) to dst,
	// including every round needed so that the collective coverage of
	// all targets at distance <= horizon is complete within the
	// appended prefix. Callers wanting a fresh slice pass nil; the
	// adversary kernel passes a recycled buffer.
	AppendRounds(dst []trajectory.Round, r int, horizon float64) ([]trajectory.Round, error)
	// Fingerprint is the strategy's content-addressed cache identity:
	// two strategies share a fingerprint exactly when they generate
	// identical rounds for every (robot, horizon). Every cache layer
	// (engine jobs, snapshots) keys on Fingerprint, never on Name —
	// Name is a human label and may omit parameters or collide.
	Fingerprint() string
}

// Turns returns robot r's turning distances up to the horizon: the
// Turn of every round s.AppendRounds yields, ray labels dropped (the
// ORC form the covering and potential arguments read).
func Turns(s Strategy, r int, horizon float64) ([]float64, error) {
	rounds, err := s.AppendRounds(nil, r, horizon)
	if err != nil {
		return nil, err
	}
	turns := make([]float64, len(rounds))
	for i, rd := range rounds {
		turns[i] = rd.Turn
	}
	return turns, nil
}

// Trajectories materializes all k robots' trajectories up to the horizon.
func Trajectories(s Strategy, horizon float64) ([]*trajectory.Star, error) {
	out := make([]*trajectory.Star, s.K())
	for r := 0; r < s.K(); r++ {
		rounds, err := s.AppendRounds(nil, r, horizon)
		if err != nil {
			return nil, fmt.Errorf("strategy %q robot %d: %w", s.Name(), r, err)
		}
		st, err := trajectory.NewStar(s.M(), rounds)
		if err != nil {
			return nil, fmt.Errorf("strategy %q robot %d: %w", s.Name(), r, err)
		}
		out[r] = st
	}
	return out, nil
}

// CyclicExponential is the appendix's optimal strategy. The zero value is
// not usable; construct with NewCyclicExponential or NewCyclicExponentialAlpha.
//
// Since the strategy-program refactor the strategy has one *identity*:
// the constructor instantiates the init-compiled CyclicScript program,
// and Fingerprint (every cache key) derives from that program's content
// hash. Round generation itself runs the native multiplication chain —
// the adversary's hot path generates rounds on every table build, and
// the native loop is an order of magnitude cheaper than the program
// VM's tree walk — with the VM path pinned bit-identical
// to it by the regression test, so a script registering CyclicScript
// through /v1/strategies produces byte-identical evaluations.
type CyclicExponential struct {
	m, k, f int
	alpha   float64
	inst    *program.Instance
}

// NewCyclicExponential returns the cyclic exponential strategy for m rays,
// k robots and f crash faults, using the optimal base
// alpha* = (q/(q-k))^(1/k) with q = m(f+1). The parameters must lie in the
// search regime f < k < m(f+1).
func NewCyclicExponential(m, k, f int) (*CyclicExponential, error) {
	regime, err := bounds.Classify(m, k, f)
	if err != nil {
		return nil, fmt.Errorf("strategy: %w", err)
	}
	if regime != bounds.RegimeSearch {
		return nil, fmt.Errorf("%w: cyclic exponential needs the search regime f < k < m(f+1), got m=%d k=%d f=%d (%v)",
			ErrBadParams, m, k, f, regime)
	}
	alpha, err := bounds.OptimalAlpha(m*(f+1), k)
	if err != nil {
		return nil, fmt.Errorf("strategy: %w", err)
	}
	return newCyclic(m, k, f, alpha)
}

// NewCyclicExponentialAlpha is NewCyclicExponential with an explicit base
// alpha > 1 (used by the alpha-sweep ablation, E7).
func NewCyclicExponentialAlpha(m, k, f int, alpha float64) (*CyclicExponential, error) {
	if _, err := NewCyclicExponential(m, k, f); err != nil {
		return nil, err
	}
	if !(alpha > 1) || math.IsInf(alpha, 0) || math.IsNaN(alpha) {
		return nil, fmt.Errorf("%w: alpha must be a finite value > 1, got %g", ErrBadParams, alpha)
	}
	return newCyclic(m, k, f, alpha)
}

// newCyclic binds the shared cyclic program to (m, k, f, alpha).
func newCyclic(m, k, f int, alpha float64) (*CyclicExponential, error) {
	inst, err := cyclicProgram.NewAlpha(m, k, f, alpha)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	return &CyclicExponential{m: m, k: k, f: f, alpha: alpha, inst: inst}, nil
}

// Name implements Strategy.
func (s *CyclicExponential) Name() string {
	return fmt.Sprintf("cyclic-exponential(m=%d,k=%d,f=%d,alpha=%.6g)", s.m, s.k, s.f, s.alpha)
}

// M implements Strategy.
func (s *CyclicExponential) M() int { return s.m }

// K implements Strategy.
func (s *CyclicExponential) K() int { return s.k }

// Alpha returns the geometric base in use.
func (s *CyclicExponential) Alpha() float64 { return s.alpha }

// F returns the number of tolerated crash faults.
func (s *CyclicExponential) F() int { return s.f }

// Q returns q = m(f+1), the covering multiplicity of Theorem 6.
func (s *CyclicExponential) Q() int { return s.m * (s.f + 1) }

// Fingerprint implements Strategy: the content hash of the
// compiled cyclic program plus the exact instantiation parameters
// (alpha in full-precision hex, unlike Name's rounded %.6g).
func (s *CyclicExponential) Fingerprint() string { return s.inst.Fingerprint() }

// AppendRounds implements Strategy. Robot r's l-th excursion (l
// starting at 1-2m) turns at alpha^(k*l + m*(r+1)) on ray
// ((l-1) mod m) + 1. Rounds are generated until the turning point
// exceeds horizon * alpha^(q + k*m), which guarantees that every point
// at distance <= horizon has received all f+1 of its assigned visits
// within the appended prefix. With a recycled dst of sufficient
// capacity (the adversary kernel's pooled table builds) the excursion
// generation allocates nothing. Generation runs the native
// multiplication chain (one pow seeds it, the loop multiplies); the
// compiled CyclicScript program is the strategy's *identity*
// (Fingerprint) and its semantic pin — the program's output is
// asserted bit-identical to this loop by TestCyclicProgramBitIdentity —
// but the built-in does not pay the VM's tree-walk on the adversary's
// hot path (every table build generates rounds). The rounds generated
// for a smaller horizon are a bit-exact prefix of those for a larger
// one: the chain depends only on (alpha, k, m, r), the horizon only
// caps its length.
func (s *CyclicExponential) AppendRounds(dst []trajectory.Round, r int, horizon float64) ([]trajectory.Round, error) {
	return s.nativeAppendRounds(dst, r, horizon)
}

// programAppendRounds generates the same rounds through the compiled
// CyclicScript program's VM — the path user-scripted strategies run.
// The bit-identity regression test holds it equal to AppendRounds.
func (s *CyclicExponential) programAppendRounds(dst []trajectory.Round, r int, horizon float64) ([]trajectory.Round, error) {
	out, err := s.inst.AppendRounds(dst, r, horizon)
	if err != nil {
		return nil, mapProgramErr(err)
	}
	return out, nil
}

// mapProgramErr translates program-package sentinels to this package's
// so callers keep matching strategy.ErrBadParams / ErrTooManyRounds.
func mapProgramErr(err error) error {
	switch {
	case errors.Is(err, program.ErrBadParams):
		return fmt.Errorf("%w: %v", ErrBadParams, err)
	case errors.Is(err, program.ErrTooManyRounds):
		return fmt.Errorf("%w: %v", ErrTooManyRounds, err)
	default:
		return err
	}
}

// nativeAppendRounds is the hand-written generation loop — the
// production fast path behind AppendRounds, and the reference the
// compiled program is pinned bit-identical against.
func (s *CyclicExponential) nativeAppendRounds(dst []trajectory.Round, r int, horizon float64) ([]trajectory.Round, error) {
	if r < 0 || r >= s.k {
		return nil, fmt.Errorf("%w: robot %d of %d", ErrBadParams, r, s.k)
	}
	if !(horizon > 0) || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return nil, fmt.Errorf("%w: horizon %g", ErrBadParams, horizon)
	}
	var (
		q        = s.Q()
		logA     = math.Log(s.alpha)
		stopExpo = math.Log(horizon)/logA + float64(q+s.k*s.m)
		first    = s.k*(1-2*s.m) + s.m*(r+1) // exponent of round l = 1-2m
		e0       = float64(first)
	)
	if e0 > stopExpo {
		return dst, nil
	}
	// Successive turning points differ by the constant factor alpha^k,
	// so one math.Pow seeds the progression and the loop multiplies —
	// the turn-generation cost of a table build drops from one Pow per
	// excursion to two per robot. The count is known up front, so the
	// slice is grown at most once and the round cap checked before
	// looping: the rounds generated are floor(span)+1, which exceeds
	// maxRounds exactly when span >= maxRounds (the float comparison
	// also guards the int conversion below against overflow).
	span := (stopExpo - e0) / float64(s.k)
	if span >= maxRounds {
		return nil, fmt.Errorf("%w: %d rounds at horizon %g", ErrTooManyRounds, maxRounds, horizon)
	}
	if need := int(span) + 1; cap(dst)-len(dst) < need {
		grown := make([]trajectory.Round, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	// The exponent k*l + m*(r+1) steps by k per round, and the ray
	// label ((l-1) mod m) + 1 is a counter that starts at 1 (l-1 = -2m
	// is a multiple of m) and wraps at m, so the loop divides nothing.
	step := math.Pow(s.alpha, float64(s.k))
	turn := math.Pow(s.alpha, e0)
	for e, ray := first, 1; ; e += s.k {
		if float64(e) > stopExpo {
			break
		}
		dst = append(dst, trajectory.Round{Ray: ray, Turn: turn})
		turn *= step
		if ray++; ray > s.m {
			ray = 1
		}
	}
	return dst, nil
}

// LineTurns returns, for m = 2 only, robot r's zigzag turning sequence in
// the alternating standard form of Section 2 (odd turns on the positive
// half-line). The cyclic order starts each robot on ray 1, so the excursion
// turns map verbatim to the line form.
func (s *CyclicExponential) LineTurns(r int, horizon float64) ([]float64, error) {
	if s.m != 2 {
		return nil, fmt.Errorf("%w: LineTurns requires m = 2, got %d", ErrBadParams, s.m)
	}
	return Turns(s, r, horizon)
}

// Doubling returns the classical cow-path strategy (one robot, two rays,
// turning points doubling), which is the f = 0, k = 1, m = 2 instance of
// the cyclic exponential family with alpha* = 2 and competitive ratio 9.
func Doubling() *CyclicExponential {
	s, err := NewCyclicExponential(2, 1, 0)
	if err != nil {
		// The parameters are in-regime by construction; a failure here is
		// a programming error, not an input error.
		panic(fmt.Sprintf("strategy: Doubling construction failed: %v", err))
	}
	return s
}

// FixedRounds is a strategy given by explicit per-robot excursion lists:
// the fixture tests and fuzz targets use to pose arbitrary round lists.
type FixedRounds struct {
	name   string
	m      int
	robots [][]trajectory.Round
	fp     string
}

// NewFixedRounds wraps explicit excursion lists as a Strategy. Each robot's
// list must be valid for trajectory.NewStar on m rays.
func NewFixedRounds(name string, m int, robots [][]trajectory.Round) (*FixedRounds, error) {
	if len(robots) == 0 {
		return nil, fmt.Errorf("%w: no robots", ErrBadParams)
	}
	for r, rounds := range robots {
		if _, err := trajectory.NewStar(m, rounds); err != nil {
			return nil, fmt.Errorf("strategy: robot %d: %w", r, err)
		}
	}
	cp := make([][]trajectory.Round, len(robots))
	for i, rounds := range robots {
		cp[i] = append([]trajectory.Round(nil), rounds...)
	}
	// The fingerprint hashes the full round content — every ray index
	// and the exact bit pattern of every turning point — and nothing
	// else. The display name is deliberately excluded: two FixedRounds
	// with the same name but different rounds must never share a cache
	// key, and identical content under different names legitimately may.
	h := sha256.New()
	fmt.Fprintf(h, "fixed-rounds/v1|m=%d|k=%d", m, len(cp))
	for _, rounds := range cp {
		h.Write([]byte{'|'})
		for _, rd := range rounds {
			fmt.Fprintf(h, "%d;%s,", rd.Ray, strconv.FormatFloat(rd.Turn, 'x', -1, 64))
		}
	}
	fp := "fr|" + hex.EncodeToString(h.Sum(nil))
	return &FixedRounds{name: name, m: m, robots: cp, fp: fp}, nil
}

// Name implements Strategy.
func (s *FixedRounds) Name() string { return s.name }

// Fingerprint implements Strategy: a content hash over the
// explicit round lists, independent of the caller-chosen name.
func (s *FixedRounds) Fingerprint() string { return s.fp }

// M implements Strategy.
func (s *FixedRounds) M() int { return s.m }

// K implements Strategy.
func (s *FixedRounds) K() int { return len(s.robots) }

// AppendRounds implements Strategy. The horizon is ignored: the caller
// supplied a finite list, and truncation is the caller's responsibility.
func (s *FixedRounds) AppendRounds(dst []trajectory.Round, r int, _ float64) ([]trajectory.Round, error) {
	if r < 0 || r >= len(s.robots) {
		return nil, fmt.Errorf("%w: robot %d of %d", ErrBadParams, r, len(s.robots))
	}
	return append(dst, s.robots[r]...), nil
}

// RaySplit is the naive fault-free baseline: the rays are partitioned among
// the robots round-robin, and each robot runs a single-robot exponential
// search over its private set of rays, ignoring the others. Its competitive
// ratio is 1 + 2*M^M/(M-1)^(M-1) for M = ceil(m/k) private rays (when the
// split is even). The E8 baseline column compares it with the
// cooperative optimum, which it never beats.
type RaySplit struct {
	m, k int
}

// NewRaySplit returns the ray-partition baseline for m rays and k robots,
// f = 0. Requires 1 <= k < m (with k >= m the problem is trivial).
func NewRaySplit(m, k int) (*RaySplit, error) {
	if m < 2 || k < 1 || k >= m {
		return nil, fmt.Errorf("%w: RaySplit requires 2 <= m and 1 <= k < m, got m=%d k=%d", ErrBadParams, m, k)
	}
	return &RaySplit{m: m, k: k}, nil
}

// Name implements Strategy.
func (s *RaySplit) Name() string { return fmt.Sprintf("ray-split(m=%d,k=%d)", s.m, s.k) }

// Fingerprint implements Strategy. RaySplit's rounds are a pure
// function of (m, k), so the content hash is over that descriptor.
func (s *RaySplit) Fingerprint() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("ray-split/v1|m=%d|k=%d", s.m, s.k)))
	return "rs|" + hex.EncodeToString(sum[:])
}

// M implements Strategy.
func (s *RaySplit) M() int { return s.m }

// K implements Strategy.
func (s *RaySplit) K() int { return s.k }

// privateRays returns the rays assigned to robot r (round-robin).
func (s *RaySplit) privateRays(r int) []int {
	var rays []int
	for ray := r + 1; ray <= s.m; ray += s.k {
		rays = append(rays, ray)
	}
	return rays
}

// AppendRounds implements Strategy: robot r cycles its private rays with
// the single-searcher optimal base beta* = M/(M-1) per visit (M private
// rays), i.e. the k = 1, f = 0 cyclic exponential restricted to its own
// star.
func (s *RaySplit) AppendRounds(dst []trajectory.Round, r int, horizon float64) ([]trajectory.Round, error) {
	if r < 0 || r >= s.k {
		return nil, fmt.Errorf("%w: robot %d of %d", ErrBadParams, r, s.k)
	}
	if !(horizon > 0) || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return nil, fmt.Errorf("%w: horizon %g", ErrBadParams, horizon)
	}
	rays := s.privateRays(r)
	mm := len(rays)
	if mm == 1 {
		// A single private ray needs one pass; go straight out.
		return append(dst, trajectory.Round{Ray: rays[0], Turn: horizon * 2}), nil
	}
	beta := float64(mm) / float64(mm-1)
	var (
		logB     = math.Log(beta)
		stopExpo = math.Log(horizon)/logB + float64(mm+1)
	)
	for l, n := 1-2*mm, 0; ; l, n = l+1, n+1 {
		e := float64(l)
		if e > stopExpo {
			break
		}
		if n >= maxRounds {
			return nil, fmt.Errorf("%w: %d rounds at horizon %g", ErrTooManyRounds, maxRounds, horizon)
		}
		idx := ((l-1)%mm + mm) % mm
		dst = append(dst, trajectory.Round{
			Ray:  rays[idx],
			Turn: math.Pow(beta, e),
		})
	}
	return dst, nil
}

var (
	_ Strategy = (*CyclicExponential)(nil)
	_ Strategy = (*FixedRounds)(nil)
	_ Strategy = (*RaySplit)(nil)
	// program.Instance satisfies Strategy structurally (the program
	// package cannot import this one); pin it here so a drift breaks
	// the build, not a downstream caller.
	_ Strategy = (*program.Instance)(nil)
)
