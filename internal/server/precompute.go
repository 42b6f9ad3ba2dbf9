// precompute.go is boundsd's startup warming pass: before a node
// reports ready on /readyz it can fill the engine cache (and, through
// it, the solver memo and kernel pools) with the work production
// traffic asks for first — the Theorem-1 verification grid plus each
// registered scenario's default parameter pool. The pass runs through
// the engine's own worker pool and cache, so it is exactly as
// parallel, deduplicated and memoized as serving the same requests
// would be, and a snapshot restored beforehand makes it near-free
// (every already-restored key is a cache hit).
package server

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/registry"
)

// PrecomputeSpec names the work a warming pass performs. The zero
// value does nothing; cmd/boundsd builds one from the loadgen sampler
// pools so the precomputed keys are the keys the load harness (and the
// traffic it models) will ask for.
type PrecomputeSpec struct {
	// SweepM/SweepKmax span the Theorem-1 verification grid
	// (engine.Grid(SweepM, SweepKmax)); SweepKmax <= 0 skips the grid.
	SweepM    int
	SweepKmax int
	// Horizon is the verification horizon of the grid pass (0 =
	// DefaultHorizon).
	Horizon float64
	// Requests maps scenario names to the verify requests to warm.
	// Unknown scenarios and requests the scenario rejects are counted
	// as failures, not fatal: precompute is best-effort by design.
	Requests map[string][]registry.Request
}

// PrecomputeStats reports a warming pass's outcome.
type PrecomputeStats struct {
	// Jobs is the number of warm-up computations attempted.
	Jobs int
	// Failed counts the attempts that did not produce a cached result
	// (scenario rejected the request, job error, budget exhausted).
	Failed int
}

// Precompute runs the warming pass on the server's engine. It returns
// early (with the partial stats) only when ctx is cancelled; job-level
// failures are counted and skipped, because a scenario that rejects a
// pool request must not block readiness. The engine's singleflight
// cache makes the pass idempotent: re-running it, or racing it with
// early traffic, computes each key once.
func (s *Server) Precompute(ctx context.Context, spec PrecomputeSpec) (PrecomputeStats, error) {
	var st PrecomputeStats
	horizon := spec.Horizon
	if horizon <= 0 {
		horizon = DefaultHorizon
	}
	if spec.SweepKmax > 0 {
		m := spec.SweepM
		if m < 2 {
			m = 2
		}
		cells := engine.Grid(m, spec.SweepKmax)
		st.Jobs += len(cells)
		results, err := s.cfg.Engine.Sweep(ctx, cells, horizon)
		if err != nil && ctx.Err() != nil {
			return st, err
		}
		for _, cr := range results {
			if cr.Err != nil {
				st.Failed++
			}
		}
		if len(results) < len(cells) {
			st.Failed += len(cells) - len(results)
		}
	}

	// Scenario pools, in name order so the pass is deterministic.
	names := make([]string, 0, len(spec.Requests))
	for name := range spec.Requests {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		reqs := spec.Requests[name]
		sc, err := s.cfg.Registry.Get(name)
		if err != nil {
			st.Jobs += len(reqs)
			st.Failed += len(reqs)
			continue
		}
		jobs := make([]engine.Job, 0, len(reqs))
		st.Jobs += len(reqs)
		for _, req := range reqs {
			job, err := sc.VerifyJob(ctx, req)
			if err != nil {
				st.Failed++
				continue
			}
			jobs = append(jobs, job)
		}
		if len(jobs) == 0 {
			continue
		}
		// The pool's jobs run on the engine workers; failures are
		// counted per job (never propagated — precompute must not fail
		// readiness over one bad pool entry).
		for jr := range s.cfg.Engine.RunStream(ctx, jobs) {
			if jr.Err != nil {
				st.Failed++
			}
		}
		if ctx.Err() != nil {
			return st, fmt.Errorf("precompute %s: %w", name, ctx.Err())
		}
	}
	if ctx.Err() != nil {
		return st, ctx.Err()
	}
	return st, nil
}
