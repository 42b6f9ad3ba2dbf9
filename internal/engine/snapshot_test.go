package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/pfaulty"
	"repro/internal/solver"
	"repro/internal/strategy/program"
)

// warmEngine runs n distinct countingJobs through e and returns the
// shared run counter.
func warmEngine(t *testing.T, e *Engine, n int) *atomic.Int64 {
	t.Helper()
	var runs atomic.Int64
	for i := 0; i < n; i++ {
		j := countingJob{key: fmt.Sprintf("job-%02d", i), value: float64(i) + 0.5, runs: &runs}
		if _, err := e.Run(context.Background(), j); err != nil {
			t.Fatalf("warm Run(%s): %v", j.key, err)
		}
	}
	if got := runs.Load(); got != int64(n) {
		t.Fatalf("warm runs = %d, want %d", got, n)
	}
	return &runs
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := NewWithCache(2, 0)
	src.solver = solver.New()
	warmEngine(t, src, 10)
	// Warm the solver memo too, so the snapshot carries more than the
	// cache: a golden-section base.
	if _, _, err := src.solver.PFaultyBase(0.25); err != nil {
		t.Fatalf("PFaultyBase: %v", err)
	}

	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	dst := NewWithCache(2, 0)
	dst.solver = solver.New()
	st, err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if st.Entries != 10 {
		t.Fatalf("restored %d entries, want 10 (stats %+v)", st.Entries, st)
	}
	if st.SolverEntries != 1 {
		t.Fatalf("restored %d solver memo entries, want 1 (stats %+v)", st.SolverEntries, st)
	}

	// Replaying the same jobs must be all hits: zero executions.
	var runs atomic.Int64
	for i := 0; i < 10; i++ {
		j := countingJob{key: fmt.Sprintf("job-%02d", i), value: -1, runs: &runs}
		res, err := dst.Run(context.Background(), j)
		if err != nil {
			t.Fatalf("warm Run(%s): %v", j.key, err)
		}
		if want := float64(i) + 0.5; res.Value != want {
			t.Fatalf("restored %s value = %v, want %v", j.key, res.Value, want)
		}
	}
	if got := runs.Load(); got != 0 {
		t.Fatalf("restored engine executed %d jobs, want 0 (all cache hits)", got)
	}
	stats := dst.Stats()
	if stats.Hits != 10 || stats.Misses != 0 {
		t.Fatalf("restored engine stats hits=%d misses=%d, want 10/0", stats.Hits, stats.Misses)
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	e := NewWithCache(2, 0)
	e.solver = solver.New()
	warmEngine(t, e, 16)
	var a, b bytes.Buffer
	if err := e.WriteSnapshot(&a); err != nil {
		t.Fatalf("first WriteSnapshot: %v", err)
	}
	if err := e.WriteSnapshot(&b); err != nil {
		t.Fatalf("second WriteSnapshot: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshots of identical state differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestSnapshotSchemaMismatchFallsBackCold(t *testing.T) {
	src := New(1)
	src.solver = solver.New()
	warmEngine(t, src, 3)
	if _, _, err := src.solver.PFaultyBase(0.25); err != nil {
		t.Fatalf("PFaultyBase: %v", err)
	}
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// v1 is the pre-program-fingerprint schema: no current build reads
	// any part of it, solver memo included.
	for _, schema := range []string{"boundsd-snapshot/v0", "boundsd-snapshot/v1"} {
		stale := strings.Replace(buf.String(), SnapshotSchema, schema, 1)
		if stale == buf.String() {
			t.Fatal("failed to rewrite schema string in snapshot fixture")
		}

		dst := New(1)
		dst.solver = solver.New()
		st, err := dst.ReadSnapshot(strings.NewReader(stale))
		if !errors.Is(err, ErrSnapshotSchema) {
			t.Fatalf("%s: ReadSnapshot(stale) error = %v, want ErrSnapshotSchema", schema, err)
		}
		if st != (RestoreStats{}) {
			t.Fatalf("%s: stale restore reported stats %+v, want zero", schema, st)
		}
		if size := dst.Stats().Size; size != 0 {
			t.Fatalf("%s: stale restore left %d cache entries, want 0", schema, size)
		}
		if n := len(dst.solver.Export().Bases); n != 0 {
			t.Fatalf("%s: stale restore imported %d solver memo entries, want 0", schema, n)
		}
	}
}

// TestSnapshotRestoresParentShapeV2 restores a v2 document in the
// shape earlier builds wrote, whose solver memo also carried alpha*
// keys, strategy keys and simulation horizon factors. Those tables are
// no longer read; the cache entries and the golden-section bases must
// still land.
func TestSnapshotRestoresParentShapeV2(t *testing.T) {
	base, worst, err := pfaulty.OptimalBase(0.25)
	if err != nil {
		t.Fatal(err)
	}
	doc := fmt.Sprintf(`{"schema":%q,`+
		`"entries":[{"key":"job-00","result":{"value":0.5,"eval":{"worst_ratio":0,"worst_ray":0,"worst_x":0}}}],`+
		`"solver":{"alphas":[{"m":2,"k":3,"f":1},{"m":4,"k":2,"f":1}],`+
		`"strategies":[{"m":2,"k":3,"f":1}],`+
		`"sim_horizon_factors":[{"m":2,"k":3,"f":1,"v":25.5}],`+
		`"bases":[{"p":0.25,"base":%s,"worst":%s}]}}`+"\n",
		SnapshotSchema, strconv.FormatFloat(base, 'g', -1, 64), strconv.FormatFloat(worst, 'g', -1, 64))

	dst := New(1)
	dst.solver = solver.New()
	st, err := dst.ReadSnapshot(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if st.Entries != 1 || st.SolverEntries != 1 {
		t.Fatalf("restore stats %+v, want Entries=1 SolverEntries=1", st)
	}
	var runs atomic.Int64
	res, err := dst.Run(context.Background(), countingJob{key: "job-00", value: -1, runs: &runs})
	if err != nil || res.Value != 0.5 || runs.Load() != 0 {
		t.Fatalf("restored job-00 = (%v, %v) after %d runs, want (0.5, nil) from cache", res.Value, err, runs.Load())
	}
	gotBase, gotWorst, err := dst.solver.PFaultyBase(0.25)
	if err != nil || gotBase != base || gotWorst != worst {
		t.Fatalf("restored base = (%v, %v, %v), want (%v, %v, nil)", gotBase, gotWorst, err, base, worst)
	}
	if ss := dst.solver.Stats(); ss.BaseHits != 1 || ss.BaseMisses != 0 {
		t.Fatalf("restored base hit/miss = %d/%d, want 1/0", ss.BaseHits, ss.BaseMisses)
	}
}

func TestSnapshotCorruptInput(t *testing.T) {
	for _, tc := range []string{"", "{not json", `[1,2,3]`, `"just a string"`} {
		dst := New(1)
		dst.solver = solver.New()
		if _, err := dst.ReadSnapshot(strings.NewReader(tc)); err == nil {
			t.Errorf("ReadSnapshot(%q) succeeded, want error", tc)
		}
		if size := dst.Stats().Size; size != 0 {
			t.Errorf("corrupt restore %q left %d cache entries, want 0", tc, size)
		}
	}
}

func TestSnapshotRestoreRespectsCapacity(t *testing.T) {
	src := NewWithCache(2, 0)
	src.solver = solver.New()
	warmEngine(t, src, 64)
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	dst := NewWithCache(2, 8)
	dst.solver = solver.New()
	if _, err := dst.ReadSnapshot(&buf); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	stats := dst.Stats()
	if stats.Size > 8 {
		t.Fatalf("restore grew cache to %d entries, capacity is 8", stats.Size)
	}
	if stats.Evictions == 0 {
		t.Fatalf("oversized restore reported no evictions, want > 0")
	}
}

func TestSnapshotDoesNotClobberResident(t *testing.T) {
	src := New(1)
	src.solver = solver.New()
	var srcRuns atomic.Int64
	if _, err := src.Run(context.Background(), countingJob{key: "same", value: 2, runs: &srcRuns}); err != nil {
		t.Fatalf("src Run: %v", err)
	}
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	dst := New(1)
	dst.solver = solver.New()
	var dstRuns atomic.Int64
	if _, err := dst.Run(context.Background(), countingJob{key: "same", value: 1, runs: &dstRuns}); err != nil {
		t.Fatalf("dst Run: %v", err)
	}
	st, err := dst.ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if st.Entries != 0 || st.Skipped != 1 {
		t.Fatalf("restore over resident key: stats %+v, want Entries=0 Skipped=1", st)
	}
	res, err := dst.Run(context.Background(), countingJob{key: "same", value: -1, runs: &dstRuns})
	if err != nil {
		t.Fatalf("dst re-Run: %v", err)
	}
	if res.Value != 1 {
		t.Fatalf("resident value clobbered by snapshot: got %v, want 1", res.Value)
	}
}

func TestSnapshotSkipsErrorsAndNonFinite(t *testing.T) {
	e := New(1)
	e.solver = solver.New()
	var runs atomic.Int64
	if _, err := e.Run(context.Background(), countingJob{key: "ok", value: 3, runs: &runs}); err != nil {
		t.Fatalf("Run(ok): %v", err)
	}
	wantErr := errors.New("boom")
	if _, err := e.Run(context.Background(), countingJob{key: "bad", err: wantErr, runs: &runs}); !errors.Is(err, wantErr) {
		t.Fatalf("Run(bad) error = %v, want %v", err, wantErr)
	}
	if _, err := e.Run(context.Background(), countingJob{key: "nan", value: math.NaN(), runs: &runs}); err != nil {
		t.Fatalf("Run(nan): %v", err)
	}

	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	dst := New(1)
	dst.solver = solver.New()
	st, err := dst.ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if st.Entries != 1 {
		t.Fatalf("restored %d entries, want only the finite error-free one (stats %+v)", st.Entries, st)
	}
	res, err := dst.Run(context.Background(), countingJob{key: "ok", value: -1, runs: &runs})
	if err != nil || res.Value != 3 {
		t.Fatalf("restored ok = (%v, %v), want (3, nil)", res.Value, err)
	}
}

// TestSnapshotSkipsInFlight pins that an in-flight singleflight slot is
// not serialized: snapshotting mid-computation must neither block nor
// leak a half-built result.
func TestSnapshotSkipsInFlight(t *testing.T) {
	e := New(2)
	e.solver = solver.New()
	release := make(chan struct{})
	started := make(chan struct{})
	blocked := blockingJob{key: "slow", started: started, release: release}
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(context.Background(), blocked)
		done <- err
	}()
	<-started

	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocked Run: %v", err)
	}

	dst := New(1)
	dst.solver = solver.New()
	st, err := dst.ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if st.Entries != 0 {
		t.Fatalf("snapshot captured %d entries while only an in-flight job existed, want 0", st.Entries)
	}
}

// blockingJob signals started, then blocks until released.
type blockingJob struct {
	key     string
	started chan struct{}
	release chan struct{}
}

func (j blockingJob) Key() string { return j.key }

func (j blockingJob) Run(ctx context.Context) (Result, error) {
	close(j.started)
	select {
	case <-j.release:
		return Result{Value: 1}, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// TestSnapshotScriptedStrategyRoundTrip pins the v2 point of the schema
// bump: cache entries for scripted (content-hash-keyed) strategies
// survive a snapshot round trip — the restored engine answers the same
// job from cache, and re-snapshotting the restored state reproduces the
// original document byte for byte.
func TestSnapshotScriptedStrategyRoundTrip(t *testing.T) {
	prog, err := program.Compile("emit(1, 2)\nemit(2, 4)\nemit(1, 8)\nemit(2, 16)\n")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prog.New(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	job := ExactRatio{Strategy: inst, Faults: 0, Horizon: 10}
	if key := job.Key(); !strings.Contains(key, prog.Hash()[:16]) {
		t.Fatalf("scripted job key %q does not embed the program hash", key)
	}

	src := New(1)
	src.solver = solver.New()
	want, err := src.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if !strings.Contains(buf.String(), SnapshotSchema) {
		t.Fatalf("snapshot does not carry schema %q", SnapshotSchema)
	}

	dst := New(1)
	dst.solver = solver.New()
	st, err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if st.Entries != 1 {
		t.Fatalf("restore stats %+v, want Entries=1", st)
	}
	got, err := dst.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("restored Run: %v", err)
	}
	if got.Value != want.Value || got.Eval != want.Eval {
		t.Errorf("restored result %+v, want %+v", got, want)
	}
	if stats := dst.Stats(); stats.Hits != 1 || stats.Misses != 0 {
		t.Errorf("restored engine stats hits=%d misses=%d, want 1/0", stats.Hits, stats.Misses)
	}

	var again bytes.Buffer
	if err := dst.WriteSnapshot(&again); err != nil {
		t.Fatalf("re-WriteSnapshot: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("snapshot round trip not byte-identical:\n%s\nvs\n%s", buf.String(), again.String())
	}
}
