// Package solver is the shared memoization layer of the compute
// pipeline. It keeps the two results worth keeping across sweep
// cells, batch items and requests:
//
//   - the optimal cyclic exponential strategy of an (m, k, f) cell.
//     strategy.CyclicExponential is immutable after construction, so
//     one instance serves any number of concurrent evaluations and
//     every caller of a cell shares one pointer;
//   - the p-faulty base pfaulty.OptimalBase(p), a golden-section
//     minimization and the one solve here with a real cost.
//
// The optimal base alpha* = (q/(q-k))^(1/k) is not memoized: it is
// the one-Pow closed form bounds.OptimalAlpha, and the strategy
// constructor computes it there. Nor is the simulation horizon factor
// 2*lambda0 + 8, which costs little more than a lookup.
//
// Both memos are keyed by request parameters, so each has a fixed
// capacity. A miss inserts only while the memo is below it; past the
// cap the result is computed, returned and not kept. Whatever fills a
// memo first stays resident, which is why boundsd's startup
// precompute warms the pooled keys before it reports ready.
//
// A Solver travels through context (With/From), so engine jobs and
// registry scenario constructors pick up the engine's solver without
// widening any Job or Scenario API; From falls back to the process-wide
// Shared solver, which keeps the layer effective even for callers that
// never heard of it.
package solver

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/pfaulty"
	"repro/internal/strategy"
)

const (
	// strategyCapacity bounds the strategy memo. The Theorem-1 and
	// m-ray grids of the experiments are a few hundred cells.
	strategyCapacity = 4096
	// baseCapacity bounds the p-faulty base memo.
	baseCapacity = 1024
)

// triple keys the (m, k, f) parameter point of a search problem.
type triple struct{ m, k, f int }

// baseVal is the memoized result pair of pfaulty.OptimalBase.
type baseVal struct{ base, worst float64 }

// Solver memoizes the pipeline's repeated solves. The zero value is not
// usable; construct with New or use the process-wide Shared instance. A
// Solver is safe for concurrent use: lookups serialize on one mutex,
// and misses solve outside it.
type Solver struct {
	mu     sync.Mutex
	strats map[triple]*strategy.CyclicExponential
	bases  map[float64]baseVal

	strategyHits   atomic.Int64
	strategyMisses atomic.Int64
	baseHits       atomic.Int64
	baseMisses     atomic.Int64
}

// New returns an empty Solver.
func New() *Solver {
	return &Solver{
		strats: make(map[triple]*strategy.CyclicExponential),
		bases:  make(map[float64]baseVal),
	}
}

// shared is the process-wide fallback solver: memoized values are pure
// functions of their keys, so one instance can serve every engine,
// registry scenario and CLI in the process.
var shared = New()

// Shared returns the process-wide Solver.
func Shared() *Solver { return shared }

// ctxKey carries a *Solver through a context.
type ctxKey struct{}

// With returns a context carrying sv; jobs and scenario constructors
// reached under it recover the solver with From.
func With(ctx context.Context, sv *Solver) context.Context {
	return context.WithValue(ctx, ctxKey{}, sv)
}

// From returns the context's Solver, or Shared when the context does
// not carry one. It never returns nil.
func From(ctx context.Context) *Solver {
	if sv, ok := ctx.Value(ctxKey{}).(*Solver); ok && sv != nil {
		return sv
	}
	return shared
}

// Stats is a snapshot of a Solver's memo counters and sizes. Hits count
// lookups served from a memo; misses count lookups that had to solve.
type Stats struct {
	// StrategyHits / StrategyMisses count Strategy lookups.
	StrategyHits, StrategyMisses int64
	// BaseHits / BaseMisses count PFaultyBase lookups (each miss is one
	// golden-section minimization).
	BaseHits, BaseMisses int64
	// StrategySize / BaseSize are the memos' current entry counts.
	StrategySize, BaseSize int
}

// Stats returns a snapshot of the solver's counters and memo sizes.
func (s *Solver) Stats() Stats {
	s.mu.Lock()
	strats, bases := len(s.strats), len(s.bases)
	s.mu.Unlock()
	return Stats{
		StrategyHits:   s.strategyHits.Load(),
		StrategyMisses: s.strategyMisses.Load(),
		BaseHits:       s.baseHits.Load(),
		BaseMisses:     s.baseMisses.Load(),
		StrategySize:   strats,
		BaseSize:       bases,
	}
}

// Strategy returns the optimal cyclic exponential strategy for
// (m, k, f), memoized. The instance is immutable; callers across
// goroutines receive the same pointer while the cell is resident.
// Parameters outside the search regime fail with the constructor's
// error.
func (s *Solver) Strategy(m, k, f int) (*strategy.CyclicExponential, error) {
	key := triple{m, k, f}
	s.mu.Lock()
	if st, ok := s.strats[key]; ok {
		s.mu.Unlock()
		s.strategyHits.Add(1)
		return st, nil
	}
	s.mu.Unlock()
	st, err := strategy.NewCyclicExponential(m, k, f)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if prev, ok := s.strats[key]; ok {
		// A concurrent miss beat us; keep the resident instance so every
		// caller shares one pointer.
		st = prev
	} else if len(s.strats) < strategyCapacity {
		s.strats[key] = st
	}
	s.mu.Unlock()
	s.strategyMisses.Add(1)
	return st, nil
}

// PFaultyBase returns pfaulty.OptimalBase(p) — the golden-section
// minimizer of the p-faulty expected ratio and its value — memoized per
// probability. One /v1/batch request evaluates it once instead of once
// per job construction plus once per closed-form row.
func (s *Solver) PFaultyBase(p float64) (base, worst float64, err error) {
	s.mu.Lock()
	if v, ok := s.bases[p]; ok {
		s.mu.Unlock()
		s.baseHits.Add(1)
		return v.base, v.worst, nil
	}
	s.mu.Unlock()
	base, worst, err = pfaulty.OptimalBase(p)
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	s.insertBase(p, baseVal{base: base, worst: worst})
	s.mu.Unlock()
	s.baseMisses.Add(1)
	return base, worst, nil
}

// insertBase stores v under p unless p is resident or the memo is
// full, and reports whether it did. The caller holds mu.
func (s *Solver) insertBase(p float64, v baseVal) bool {
	if _, ok := s.bases[p]; ok || len(s.bases) >= baseCapacity {
		return false
	}
	s.bases[p] = v
	return true
}

// BaseMemo is one exported golden-section minimization result of
// PFaultyBase.
type BaseMemo struct {
	P     float64 `json:"p"`
	Base  float64 `json:"base"`
	Worst float64 `json:"worst"`
}

// Memo is the serializable content of a Solver: what an engine cache
// snapshot carries so a restarted process skips the golden-section
// minimizations. Strategies are not carried: rebuilding one costs
// about 240 ns. Bases are sorted by p, so an export is a deterministic
// function of the memo's content.
type Memo struct {
	Bases []BaseMemo `json:"bases,omitempty"`
}

// Export snapshots the solver's base memo.
func (s *Solver) Export() Memo {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m Memo
	for p, v := range s.bases {
		m.Bases = append(m.Bases, BaseMemo{P: p, Base: v.base, Worst: v.worst})
	}
	sort.Slice(m.Bases, func(i, j int) bool { return m.Bases[i].P < m.Bases[j].P })
	return m
}

// Import merges an exported memo into the solver, up to the memo's
// capacity, and reports how many entries landed. Entries that fail a
// sanity check are skipped, never fatal: a snapshot is an
// optimization, not a source of truth. Resident keys keep their
// values, and imports do not advance the hit/miss counters.
func (s *Solver) Import(m Memo) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	imported := 0
	for _, b := range m.Bases {
		if !(b.P > 0 && b.P < 1) || !(b.Base > 1) || !(b.Worst > 0) ||
			math.IsInf(b.Base, 0) || math.IsInf(b.Worst, 0) {
			continue
		}
		if s.insertBase(b.P, baseVal{base: b.Base, worst: b.Worst}) {
			imported++
		}
	}
	return imported
}
