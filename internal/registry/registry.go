// Package registry makes fault models first-class citizens of the
// reproduction: instead of hard-coded enum switches scattered through
// internal/core and the CLIs, every fault semantics is a named,
// self-describing Scenario — a parameter schema, bound functions, and a
// verify-job constructor for internal/engine. New variants (Byzantine
// line search of Czyzowicz et al., p-Faulty half-line search of Bonato
// et al., ...) register an entry and immediately become addressable by
// every consumer: the core.Problem facade, the CLIs' -model flags, and
// the boundsd HTTP API, which serves the registry listing verbatim as
// /v1/scenarios.
//
// The package-level Default registry carries the built-in scenarios
// ("crash", "byzantine", "probabilistic", "pfaulty-halfline",
// "byzantine-line", "shoreline", "evacuation-line"); isolated
// registries can be constructed for tests or embedding.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/engine"
)

// Errors returned by registry operations and scenario functions.
var (
	// ErrUnknownScenario is returned when a name resolves to nothing.
	ErrUnknownScenario = errors.New("registry: unknown scenario")
	// ErrDuplicate is returned when registering an already-taken name.
	ErrDuplicate = errors.New("registry: scenario already registered")
	// ErrInvalidScenario is returned when registering an entry missing
	// required fields.
	ErrInvalidScenario = errors.New("registry: invalid scenario definition")
	// ErrNoUpperBound is returned by UpperBound when the scenario has no
	// matching upper bound (e.g. Byzantine: only the transfer lower
	// bound is known).
	ErrNoUpperBound = errors.New("registry: no matching upper bound known for this scenario")
	// ErrNotVerifiable is returned by VerifyJob when the scenario (or
	// the particular parameter triple) has no executable verification.
	ErrNotVerifiable = errors.New("registry: scenario is not verifiable at these parameters")
)

// Cost is a scenario's admission-control cost class: the server's
// estimate of what its verify/simulate jobs cost, used to route cheap
// requests past the queue and to bound expensive in-flight work per
// class. The classes are ordered by orders of magnitude, not
// microseconds: closed-form lookups are arithmetic, analytic-adversary
// evaluations are polynomial scans over breakpoints, and Monte-Carlo /
// worst-over-grid searches are unbounded-constant sampling loops.
type Cost string

// Cost classes, cheapest first.
const (
	// CostClosedForm marks scenarios whose verifiable quantities are
	// closed-form evaluations (microseconds; never queued).
	CostClosedForm Cost = "closed-form"
	// CostAnalytic marks scenarios verified by the deterministic
	// analytic adversary (milliseconds; bounded by the general
	// in-flight limit).
	CostAnalytic Cost = "analytic"
	// CostMonteCarlo marks scenarios verified by seeded Monte-Carlo
	// trials or worst-over-grid searches (tens to hundreds of
	// milliseconds; bounded by the heavy in-flight limit and shed
	// first under overload).
	CostMonteCarlo Cost = "montecarlo"
)

// heavier orders the classes for comparisons (max over a batch).
var costRank = map[Cost]int{CostClosedForm: 0, CostAnalytic: 1, CostMonteCarlo: 2}

// Heavier reports whether c is a costlier class than other. Unknown
// classes rank heaviest, so a misconfigured scenario is throttled, not
// fast-pathed.
func (c Cost) Heavier(other Cost) bool { return c.rank() > other.rank() }

func (c Cost) rank() int {
	if r, ok := costRank[c]; ok {
		return r
	}
	return len(costRank)
}

// Objective is the question a scenario's measured quantity answers:
// find the target (the searcher's ratio clock stops at detection) or
// evacuate (it stops when every healthy robot has reached the target).
// The objective is part of a scenario's identity the same way its
// geometry is — the same strategy under the two objectives yields
// different numbers, so consumers (the catalog, the cache keys, the
// loadgen mixes) must never conflate them.
type Objective string

// Objectives.
const (
	// ObjectiveFind marks scenarios measured to first detection.
	ObjectiveFind Objective = "find"
	// ObjectiveEvacuate marks scenarios measured to the moment the last
	// healthy robot reaches the announced target.
	ObjectiveEvacuate Objective = "evacuate"
)

// validObjective reports whether o is a declared objective.
func validObjective(o Objective) bool {
	return o == ObjectiveFind || o == ObjectiveEvacuate
}

// ParamKind is the type of a scenario parameter.
type ParamKind string

// Parameter kinds.
const (
	KindInt   ParamKind = "int"
	KindFloat ParamKind = "float"
)

// Param describes one scenario parameter for the self-describing
// listing (/v1/scenarios, cmd/bounds -scenarios). Validation itself is
// programmatic, via Scenario.Validate.
type Param struct {
	Name string    `json:"name"`
	Kind ParamKind `json:"kind"`
	Doc  string    `json:"doc"`
	// Default is the value an unset request resolves to, for optional
	// float parameters (0 = no default / required). It is what lets
	// generic consumers report the effective configuration instead of
	// the raw request.
	Default float64 `json:"default,omitempty"`
}

// ParamNamed returns the scenario's parameter with the given name.
func (s Scenario) ParamNamed(name string) (Param, bool) {
	for _, p := range s.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// EffectiveP resolves the request's effective fault probability under
// this scenario: the explicit req.P, else the declared default of the
// scenario's "p" parameter, else 0 (the scenario takes no p).
func (s Scenario) EffectiveP(req Request) float64 {
	p, ok := s.ParamNamed("p")
	if !ok {
		return 0
	}
	if req.P != 0 {
		return req.P
	}
	return p.Default
}

// Scenario is one named fault model: its parameter schema, its bound
// functions, and the constructor for the engine job that measures its
// verifiable quantity. All functions must be safe for concurrent use.
type Scenario struct {
	// Name is the registry key ("crash", "byzantine", ...).
	Name string `json:"name"`
	// Description is a one-line human summary with the source reference.
	Description string `json:"description"`
	// Params is the declarative parameter schema.
	Params []Param `json:"params"`
	// HasUpperBound reports whether UpperBound can ever succeed;
	// Register derives it from UpperBound's nil-ness.
	HasUpperBound bool `json:"has_upper_bound"`
	// Verifiable reports whether VerifyJob can ever succeed.
	Verifiable bool `json:"verifiable"`
	// Rays reports that m counts rays, so the paper's (m, k, f) regime
	// classification, ρ = m(f+1)/k and the crash strategies built on
	// them apply to the scenario's triples. It is false where m means
	// something else (shoreline: the ambient dimension).
	Rays bool `json:"-"`
	// Simulatable reports whether the scenario has a simulator
	// (SimulateJob non-nil); Register fills it in.
	Simulatable bool `json:"simulatable"`
	// Cost is the admission-control class of the scenario's verify and
	// simulate jobs. Register defaults an empty Cost to CostAnalytic
	// for verifiable scenarios (a real adversary evaluation runs) and
	// CostClosedForm otherwise (only bound lookups can succeed).
	Cost Cost `json:"cost"`
	// Objective is the measured question (find vs evacuate). Register
	// rejects entries that do not declare one: unlike Cost there is no
	// safe default — mislabeling the objective silently misstates what
	// every number the scenario serves means.
	Objective Objective `json:"objective"`

	// Validate checks an (m, k, f) triple under this fault model: it is
	// the scenario's scope, stated once. Register applies it in front of
	// every bound function, ClosedForm and job constructor, so those are
	// only ever called on triples it accepts.
	Validate func(m, k, f int) error `json:"-"`
	// LowerBound returns the scenario's lower bound on the competitive
	// ratio (the paper's A(m,k,f) for crash, the transfer bound for
	// Byzantine, the Kao–Reif–Tate constant for probabilistic).
	LowerBound func(m, k, f int) (float64, error) `json:"-"`
	// UpperBound returns the best known matching upper bound. A nil
	// UpperBound registers as one answering ErrNoUpperBound.
	UpperBound func(m, k, f int) (float64, error) `json:"-"`
	// VerifyJob constructs the deterministic engine job measuring the
	// scenario's verifiable headline quantity for the request, or an
	// error wrapping ErrNotVerifiable. ctx is the caller's request
	// context: constructors doing nontrivial work (root finding,
	// strategy materialization) should respect it, and the job it
	// returns receives a context again at Run time from the engine.
	VerifyJob func(ctx context.Context, req Request) (engine.Job, error) `json:"-"`
	// SimulateJob constructs the engine job that runs the scenario's
	// simulator against one target (req.Dist) — the simulation
	// verification layer's per-row unit of work. nil when the scenario
	// has no simulator.
	SimulateJob func(ctx context.Context, req Request) (engine.Job, error) `json:"-"`
	// ClosedForm returns the closed-form reference value the verify
	// and simulate jobs are measured against at this request. Register
	// defaults a nil ClosedForm to LowerBound(m, k, f); scenarios whose
	// reference depends on request fields beyond the triple (the
	// p-faulty model's fault probability and target distance) set it.
	ClosedForm func(req Request) (float64, error) `json:"-"`
}

// Registry is a concurrency-safe name -> Scenario table.
type Registry struct {
	mu        sync.RWMutex
	scenarios map[string]Scenario
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{scenarios: make(map[string]Scenario)}
}

// Register adds a scenario. The name must be unique, the objective
// declared, and Validate, LowerBound and VerifyJob non-nil. Register is
// the one place a scenario's scope is applied: on a triple Validate
// rejects, the bound functions and ClosedForm return Validate's error
// and the job constructors return it wrapped in ErrNotVerifiable. It
// also derives HasUpperBound and Simulatable, and fills in a nil
// UpperBound (ErrNoUpperBound), ClosedForm (the lower bound) and Cost.
func (r *Registry) Register(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("%w: empty name", ErrInvalidScenario)
	}
	if s.Validate == nil || s.LowerBound == nil || s.VerifyJob == nil {
		return fmt.Errorf("%w: scenario %q must define Validate, LowerBound and VerifyJob", ErrInvalidScenario, s.Name)
	}
	if !validObjective(s.Objective) {
		return fmt.Errorf("%w: scenario %q must declare an objective (%q or %q), got %q",
			ErrInvalidScenario, s.Name, ObjectiveFind, ObjectiveEvacuate, s.Objective)
	}
	s.HasUpperBound = s.UpperBound != nil
	if !s.HasUpperBound {
		s.UpperBound = func(m, k, f int) (float64, error) { return 0, ErrNoUpperBound }
	}
	if s.ClosedForm == nil {
		lower := s.LowerBound
		s.ClosedForm = func(req Request) (float64, error) { return lower(req.M, req.K, req.F) }
	}
	s.Simulatable = s.SimulateJob != nil
	validate, closedForm := s.Validate, s.ClosedForm
	s.LowerBound = scopedBound(validate, s.LowerBound)
	s.UpperBound = scopedBound(validate, s.UpperBound)
	s.ClosedForm = func(req Request) (float64, error) {
		if err := validate(req.M, req.K, req.F); err != nil {
			return 0, err
		}
		return closedForm(req)
	}
	s.VerifyJob = scopedJob(validate, s.VerifyJob)
	if s.Simulatable {
		s.SimulateJob = scopedJob(validate, s.SimulateJob)
	}
	if s.Cost == "" {
		if s.Verifiable {
			s.Cost = CostAnalytic
		} else {
			s.Cost = CostClosedForm
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.scenarios[s.Name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicate, s.Name)
	}
	r.scenarios[s.Name] = s
	return nil
}

// scopedBound answers bound on the triples validate accepts and
// validate's error elsewhere.
func scopedBound(validate func(m, k, f int) error, bound func(m, k, f int) (float64, error)) func(m, k, f int) (float64, error) {
	return func(m, k, f int) (float64, error) {
		if err := validate(m, k, f); err != nil {
			return 0, err
		}
		return bound(m, k, f)
	}
}

// scopedJob constructs job's engine job for requests whose triple
// validate accepts, and answers ErrNotVerifiable wrapping validate's
// error elsewhere.
func scopedJob(validate func(m, k, f int) error, job func(context.Context, Request) (engine.Job, error)) func(context.Context, Request) (engine.Job, error) {
	return func(ctx context.Context, req Request) (engine.Job, error) {
		if err := validate(req.M, req.K, req.F); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotVerifiable, err)
		}
		return job(ctx, req)
	}
}

// MustRegister is Register, panicking on error (init-time use).
func (r *Registry) MustRegister(s Scenario) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// Get resolves a scenario by name.
func (r *Registry) Get(name string) (Scenario, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.scenarios[name]
	if !ok {
		return Scenario{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownScenario, name, r.namesLocked())
	}
	return s, nil
}

func (r *Registry) namesLocked() []string {
	names := make([]string, 0, len(r.scenarios))
	for name := range r.scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SimulatableNames returns the names of the scenarios with a
// simulator, sorted — the list the CLIs and the server print when a
// request names a scenario without one.
func (r *Registry) SimulatableNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.scenarios))
	for name, sc := range r.scenarios {
		if sc.Simulatable {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// All returns every scenario in name order.
func (r *Registry) All() []Scenario {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Scenario, 0, len(r.scenarios))
	for _, name := range r.namesLocked() {
		out = append(out, r.scenarios[name])
	}
	return out
}

// defaultRegistry carries the built-in scenarios.
var defaultRegistry = func() *Registry {
	r := NewRegistry()
	registerBuiltins(r)
	return r
}()

// Default returns the process-wide registry with the built-in
// scenarios registered.
func Default() *Registry { return defaultRegistry }

// Get resolves a name in the default registry.
func Get(name string) (Scenario, error) { return defaultRegistry.Get(name) }

// SimulatableNames lists the default registry's simulatable scenarios.
func SimulatableNames() []string { return defaultRegistry.SimulatableNames() }
