// warm.go is the daemon's warm-start machinery: restoring the engine
// cache from a snapshot, writing one atomically on shutdown, and
// converting the loadgen sampler pools into the startup precompute
// pass. All of it is best-effort by design — a node must
// come up cold whenever its snapshot is missing, stale or torn, and a
// failed snapshot write must never take the process down.
package main

import (
	"errors"
	"log"
	"os"

	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/registry"
	"repro/internal/server"
)

// restoreSnapshot loads path into the engine cache. Every failure mode
// — missing file, unreadable bytes, a mismatched schema version — is a
// logged cold start, never an error.
func restoreSnapshot(eng *engine.Engine, path string) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			log.Printf("boundsd: no snapshot at %s, cold start", path)
		} else {
			log.Printf("boundsd: snapshot open failed (%v), cold start", err)
		}
		return
	}
	defer f.Close()
	st, err := eng.ReadSnapshot(f)
	if err != nil {
		if errors.Is(err, engine.ErrSnapshotSchema) {
			log.Printf("boundsd: snapshot schema mismatch (%v), cold start", err)
		} else {
			log.Printf("boundsd: snapshot restore failed (%v), cold start", err)
		}
		return
	}
	log.Printf("boundsd: restored %d cache entries and %d solver entries from %s",
		st.Entries, st.SolverEntries, path)
}

// writeSnapshot persists the engine cache to path atomically: the
// bytes land in a same-directory temp file and rename(2) publishes
// them, so a crash mid-write leaves the previous snapshot intact and a
// restart never reads a torn file.
func writeSnapshot(eng *engine.Engine, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := eng.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// snapshotNow is one logged snapshot pass, run by the shutdown hook.
func snapshotNow(eng *engine.Engine, path string) {
	if err := writeSnapshot(eng, path); err != nil {
		log.Printf("boundsd: snapshot write failed: %v", err)
		return
	}
	log.Printf("boundsd: snapshot written to %s (%d entries)", path, eng.Stats().Size)
}

// precomputeSpec converts the loadgen sampler pools into the warming
// pass: the Theorem-1 grid at the pools' largest sweep extent, the
// crash search-regime triples crossed with every pooled verify
// horizon, and one pfaulty-halfline request per pooled fault
// probability (each warms the solver's golden-section base for that p,
// which every later simulate with the same p reuses regardless of its
// seed). Keeping the spec derived from loadgen.DefaultPools means the
// precomputed keys are exactly the keys pooled traffic asks for.
func precomputeSpec() server.PrecomputeSpec {
	pools := loadgen.DefaultPools()
	spec := server.PrecomputeSpec{
		SweepM:    2,
		SweepKmax: maxOf(pools.SweepKmax),
		Horizon:   maxOf(pools.SweepHorizons),
		Requests:  make(map[string][]registry.Request),
	}
	for _, t := range pools.Triples() {
		for _, h := range pools.VerifyHorizons {
			spec.Requests["crash"] = append(spec.Requests["crash"],
				registry.Request{M: t[0], K: t[1], F: t[2], Horizon: h})
		}
	}
	simHorizon := maxOf(pools.SimHorizons)
	for _, p := range pools.SimPfaultyP {
		spec.Requests["pfaulty-halfline"] = append(spec.Requests["pfaulty-halfline"],
			registry.Request{M: 1, K: 1, F: 0, P: p, Horizon: simHorizon})
	}
	for _, kf := range pools.ShorelineKFs {
		spec.Requests["shoreline"] = append(spec.Requests["shoreline"],
			registry.Request{M: 2, K: kf[0], F: kf[1], Horizon: simHorizon})
	}
	// Each evacuation verify warms the solver's strategy for its
	// (k, f), which every pooled evacuation simulate reuses.
	for _, f := range pools.EvacuationFs {
		spec.Requests["evacuation-line"] = append(spec.Requests["evacuation-line"],
			registry.Request{M: 2, K: 2*f + 1, F: f, Horizon: simHorizon})
	}
	return spec
}

// maxOf returns the largest element of a non-empty pool.
func maxOf[T int | float64](pool []T) T {
	best := pool[0]
	for _, v := range pool[1:] {
		if v > best {
			best = v
		}
	}
	return best
}
