// snapshot.go is the engine cache's persistence codec: a versioned
// JSON document carrying the memoized job results (fingerprint key +
// Result) plus the solver's golden-section base memo, written on
// boundsd's graceful shutdown and restored at the next startup so a
// warm restart does not cold-start the hot (m, k, f) grids.
//
// The format is guarded by SnapshotSchema, a version string embedded
// in the document. Readers reject any other version with
// ErrSnapshotSchema instead of guessing: job key grammars and the
// Result layout are load-bearing (equal keys must mean equal results),
// so a snapshot from a build that changed either must fall back to a
// cold start, never be misread into the cache. Bump SnapshotSchema
// whenever a job Key() grammar, the Result wire layout, or the solver
// memo layout changes meaning.
//
// Only completed, error-free, finite entries are written: in-flight
// computations have no result yet (and are not cache entries), memoized
// errors do not serialize portably, and non-finite floats are not
// representable in JSON. Restore inserts entries only for absent keys
// and enforces the LRU capacity as it goes, so restoring an oversized
// snapshot into a smaller cache is safe (the snapshot's first keys in
// sorted order end at the LRU tail and are dropped, counted as
// evictions).
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/adversary"
	"repro/internal/solver"
)

// SnapshotSchema identifies the snapshot layout AND the semantics of
// the keyed results inside it. v2 rolled the cache-key grammar onto
// content-addressed strategy fingerprints (program hashes instead of
// Name() strings). Readers accept exactly this string.
const SnapshotSchema = "boundsd-snapshot/v2"

// ErrSnapshotSchema is returned by ReadSnapshot for a structurally
// valid snapshot written under a different schema version. Callers
// treat it (like any restore error) as "start cold", never as fatal.
var ErrSnapshotSchema = errors.New("engine: snapshot schema version mismatch")

// snapEvaluation is the wire form of adversary.Evaluation. The fields
// carry explicit JSON tags so a Go-side rename cannot silently change
// the on-disk format out from under the schema version.
type snapEvaluation struct {
	WorstRatio  float64 `json:"worst_ratio"`
	WorstRay    int     `json:"worst_ray"`
	WorstX      float64 `json:"worst_x"`
	Attained    bool    `json:"attained,omitempty"`
	Breakpoints int     `json:"breakpoints,omitempty"`
}

func evalToWire(ev adversary.Evaluation) snapEvaluation {
	return snapEvaluation{
		WorstRatio: ev.WorstRatio, WorstRay: ev.WorstRay, WorstX: ev.WorstX,
		Attained: ev.Attained, Breakpoints: ev.Breakpoints,
	}
}

func evalFromWire(ev snapEvaluation) adversary.Evaluation {
	return adversary.Evaluation{
		WorstRatio: ev.WorstRatio, WorstRay: ev.WorstRay, WorstX: ev.WorstX,
		Attained: ev.Attained, Breakpoints: ev.Breakpoints,
	}
}

// snapResult is the wire form of Result.
type snapResult struct {
	Value   float64          `json:"value"`
	Eval    snapEvaluation   `json:"eval"`
	Samples int              `json:"samples,omitempty"`
	Seed    int64            `json:"seed,omitempty"`
	Clamped bool             `json:"clamped,omitempty"`
	Evals   []snapEvaluation `json:"evals,omitempty"`
}

// snapEntry is one cached job result.
type snapEntry struct {
	Key    string     `json:"key"`
	Result snapResult `json:"result"`
}

// snapshotDoc is the on-disk document.
type snapshotDoc struct {
	Schema  string      `json:"schema"`
	Entries []snapEntry `json:"entries"`
	Solver  solver.Memo `json:"solver"`
}

// finiteEval reports whether every float in the evaluation is
// JSON-representable.
func finiteEval(ev adversary.Evaluation) bool {
	return !math.IsNaN(ev.WorstRatio) && !math.IsInf(ev.WorstRatio, 0) &&
		!math.IsNaN(ev.WorstX) && !math.IsInf(ev.WorstX, 0)
}

// snapshotable reports whether a result can ride in a snapshot.
func snapshotable(res Result) bool {
	if math.IsNaN(res.Value) || math.IsInf(res.Value, 0) || !finiteEval(res.Eval) {
		return false
	}
	for _, ev := range res.Evals {
		if !finiteEval(ev) {
			return false
		}
	}
	return true
}

// WriteSnapshot serializes the cache's error-free completed results
// and the solver's base memo to w as one versioned JSON document.
// Entries are sorted by key, so equal cache contents produce identical
// bytes. Computations in flight are not in the cache and so not in the
// snapshot; memoized errors and non-finite results are skipped.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	doc := snapshotDoc{Schema: SnapshotSchema, Solver: e.solver.Export()}
	e.mu.Lock()
	for el := e.lru.Front(); el != nil; el = el.Next() {
		c := el.Value.(*cached)
		if c.err != nil || !snapshotable(c.res) {
			continue
		}
		sr := snapResult{
			Value:   c.res.Value,
			Eval:    evalToWire(c.res.Eval),
			Samples: c.res.Samples,
			Seed:    c.res.Seed,
			Clamped: c.res.Clamped,
		}
		for _, ev := range c.res.Evals {
			sr.Evals = append(sr.Evals, evalToWire(ev))
		}
		doc.Entries = append(doc.Entries, snapEntry{Key: c.key, Result: sr})
	}
	e.mu.Unlock()
	sort.Slice(doc.Entries, func(i, j int) bool { return doc.Entries[i].Key < doc.Entries[j].Key })
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// RestoreStats reports what a ReadSnapshot landed.
type RestoreStats struct {
	// Entries is the number of cache entries inserted.
	Entries int
	// Skipped counts snapshot entries not inserted (key already
	// resident, or empty key).
	Skipped int
	// SolverEntries is the number of solver memo entries imported.
	SolverEntries int
}

// ReadSnapshot restores a snapshot written by WriteSnapshot into the
// cache and the solver memo. A snapshot from a different schema
// version fails with ErrSnapshotSchema and changes nothing; a snapshot
// that does not parse fails likewise. Restored entries land as
// completed cache entries (future Runs of the key are hits); keys
// already resident are left alone, and the LRU capacity is enforced
// during the restore, so an oversized snapshot cannot grow the cache
// past its bound.
func (e *Engine) ReadSnapshot(r io.Reader) (RestoreStats, error) {
	var doc snapshotDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return RestoreStats{}, fmt.Errorf("engine: snapshot decode: %w", err)
	}
	if doc.Schema != SnapshotSchema {
		return RestoreStats{}, fmt.Errorf("%w: snapshot is %q, this build reads %q",
			ErrSnapshotSchema, doc.Schema, SnapshotSchema)
	}
	var st RestoreStats
	for _, entry := range doc.Entries {
		if entry.Key == "" {
			st.Skipped++
			continue
		}
		res := Result{
			Value:   entry.Result.Value,
			Eval:    evalFromWire(entry.Result.Eval),
			Samples: entry.Result.Samples,
			Seed:    entry.Result.Seed,
			Clamped: entry.Result.Clamped,
		}
		for _, ev := range entry.Result.Evals {
			res.Evals = append(res.Evals, evalFromWire(ev))
		}
		if e.restoreEntry(entry.Key, res) {
			st.Entries++
		} else {
			st.Skipped++
		}
	}
	st.SolverEntries = e.solver.Import(doc.Solver)
	return st, nil
}

// restoreEntry inserts one completed result under key, unless the key
// is cached or in flight (a live entry always wins over a snapshot).
// The entry lands at the LRU front in call order, so a snapshot's
// first keys in sorted order are what a smaller capacity evicts first.
func (e *Engine) restoreEntry(key string, res Result) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.flights[key]; ok {
		return false
	}
	return e.storeLocked(key, res, nil)
}
