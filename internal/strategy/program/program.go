// Package program compiles sandboxed strategy scripts into a small
// content-addressed IR and evaluates them as search strategies.
//
// A script is the body of a Go function (parsed with go/parser, so the
// surface syntax is a strict subset of Go) that generates the excursion
// rounds of one robot by calling emit(ray, turn). The script sees six
// read-only inputs bound as local variables:
//
//	r       0-based robot index (0 <= r < k)
//	m       number of rays of the star S_m
//	k       number of robots
//	f       number of faults the adversary may invest
//	alpha   the exponential base alpha*(q, k) for q = m(f+1)
//	horizon generate rounds with turn points up to (roughly) this distance
//
// All values are float64. The only effects a script can have are the
// rounds it emits; there is no FFI beyond a whitelisted math surface
// (pow, log, exp, sqrt, abs, floor, ceil, min, max, mod). Execution is
// gas-metered: every IR node evaluated costs one unit of gas, and a
// script that exhausts its gas budget is stopped with ErrGasExhausted.
// Emitted rounds are capped at MaxRounds per robot, matching the
// strategy package's guard.
//
// Compiling a script produces a Program whose Hash is a SHA-256 over the
// canonical rendering of the IR. The hash is insensitive to whitespace,
// comments, and variable names, and it is the single cache fingerprint
// used by the engine, solver memos, and snapshots.
package program

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/bounds"
	"repro/internal/trajectory"
)

// Errors returned by the compiler and the evaluator.
var (
	// ErrCompile is returned for scripts that fail to parse or use
	// constructs outside the sandboxed subset.
	ErrCompile = errors.New("program: compile error")
	// ErrGasExhausted is returned when a script runs past its gas
	// budget (an infinite loop or an excessively expensive program).
	ErrGasExhausted = errors.New("program: gas budget exhausted")
	// ErrTooManyRounds is returned when a script emits more than
	// MaxRounds rounds for a single robot.
	ErrTooManyRounds = errors.New("program: too many rounds")
	// ErrEval is returned for runtime errors in an otherwise
	// well-formed script, such as emitting an invalid ray or a
	// non-positive turn point.
	ErrEval = errors.New("program: evaluation error")
	// ErrBadParams is returned for invalid instantiation parameters.
	ErrBadParams = errors.New("program: invalid parameters")
)

// Sandbox limits. They are deliberately generous for real strategies and
// deliberately fatal for runaway ones.
const (
	// MaxSourceBytes caps the size of a script source.
	MaxSourceBytes = 64 << 10
	// MaxProgramNodes caps the number of IR nodes in a compiled
	// program.
	MaxProgramNodes = 4096
	// MaxDepth caps statement/expression nesting.
	MaxDepth = 64
	// MaxRounds caps the rounds emitted for a single robot, matching
	// the strategy package's maxRounds guard.
	MaxRounds = 1 << 20
	// DefaultGas is the gas budget for one robot's round generation.
	// Every IR node evaluated costs one unit. Real strategies emit a
	// few dozen rounds per robot and spend a few hundred units; the
	// budget leaves headroom for MaxRounds emissions from a loop of
	// moderate cost, while an infinite loop burns through it in a few
	// hundred milliseconds — well inside a request budget.
	DefaultGas = 64 << 20
)

// hashPrefix versions the canonical rendering fed to SHA-256. Bump it if
// the IR rendering ever changes meaning.
const hashPrefix = "strategy-program/v1\n"

// Input slots bound before user locals.
const (
	slotR = iota
	slotM
	slotK
	slotF
	slotAlpha
	slotHorizon
	numInputSlots
)

var inputNames = [numInputSlots]string{"r", "m", "k", "f", "alpha", "horizon"}

// Program is a compiled, immutable strategy script. It is safe for
// concurrent use; per-run state lives in pooled VMs.
type Program struct {
	body   []stmt
	locals int // total slots including inputs
	nodes  int
	hash   string
}

// Hash returns the hex SHA-256 content hash of the canonical IR. Two
// scripts that differ only in whitespace, comments, or variable names
// share a hash.
func (p *Program) Hash() string { return p.hash }

// Nodes reports the number of IR nodes in the program.
func (p *Program) Nodes() int { return p.nodes }

func (p *Program) computeHash() {
	var b strings.Builder
	b.WriteString(hashPrefix)
	renderStmts(&b, p.body)
	sum := sha256.Sum256([]byte(b.String()))
	p.hash = hex.EncodeToString(sum[:])
}

// New instantiates the program as a strategy for k robots on S_m against
// f faults, with alpha = alpha*(m(f+1), k), the optimal base of
// Theorem 1. It requires the search regime k < m(f+1) (otherwise no
// finite base exists); use NewAlpha to supply an explicit base.
func (p *Program) New(m, k, f int) (*Instance, error) {
	regime, err := bounds.Classify(m, k, f)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	if regime != bounds.RegimeSearch {
		return nil, fmt.Errorf("%w: m=%d k=%d f=%d is in the %v regime, need search (f < k < m(f+1))",
			ErrBadParams, m, k, f, regime)
	}
	alpha, err := bounds.OptimalAlpha(m*(f+1), k)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	return p.NewAlpha(m, k, f, alpha)
}

// NewAlpha instantiates the program with an explicit exponential base.
func (p *Program) NewAlpha(m, k, f int, alpha float64) (*Instance, error) {
	if m < 1 || k < 1 || f < 0 {
		return nil, fmt.Errorf("%w: m=%d k=%d f=%d", ErrBadParams, m, k, f)
	}
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha <= 1 {
		return nil, fmt.Errorf("%w: alpha must be a finite value > 1, got %g", ErrBadParams, alpha)
	}
	return &Instance{p: p, m: m, k: k, f: f, alpha: alpha}, nil
}

// Instance is a Program bound to concrete (m, k, f, alpha) parameters.
// It implements strategy.Strategy, including the content-addressed
// fingerprint used by every cache layer.
type Instance struct {
	p     *Program
	m     int
	k     int
	f     int
	alpha float64
}

// Name identifies the instance for human-facing reports. Cache keys use
// Fingerprint, never Name.
func (s *Instance) Name() string {
	return fmt.Sprintf("program(%s,m=%d,k=%d,f=%d)", s.p.hash[:12], s.m, s.k, s.f)
}

// M returns the number of rays.
func (s *Instance) M() int { return s.m }

// K returns the number of robots.
func (s *Instance) K() int { return s.k }

// Fingerprint returns the content-addressed cache identity: the program
// hash plus the exact bit patterns of the instantiation parameters.
func (s *Instance) Fingerprint() string {
	return "sp|" + s.p.hash +
		"|m=" + strconv.Itoa(s.m) +
		"|k=" + strconv.Itoa(s.k) +
		"|f=" + strconv.Itoa(s.f) +
		"|a=" + strconv.FormatFloat(s.alpha, 'x', -1, 64)
}

// AppendRounds appends robot r's excursions up to horizon to dst,
// running the compiled script in a pooled gas-metered VM.
func (s *Instance) AppendRounds(dst []trajectory.Round, r int, horizon float64) ([]trajectory.Round, error) {
	if r < 0 || r >= s.k {
		return nil, fmt.Errorf("%w: robot %d of %d", ErrBadParams, r, s.k)
	}
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) || horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon %g", ErrBadParams, horizon)
	}
	v := getVM(s.p.locals)
	v.locals[slotR] = float64(r)
	v.locals[slotM] = float64(s.m)
	v.locals[slotK] = float64(s.k)
	v.locals[slotF] = float64(s.f)
	v.locals[slotAlpha] = s.alpha
	v.locals[slotHorizon] = horizon
	v.m = s.m
	v.dst = dst
	_, err := v.execStmts(s.p.body)
	dst = v.dst
	putVM(v)
	if err != nil {
		return nil, err
	}
	return dst, nil
}
