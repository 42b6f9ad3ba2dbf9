package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/strategy"
)

// countingJob counts its executions through a shared counter, so the
// tests can observe caching and singleflight behavior.
type countingJob struct {
	key   string
	value float64
	err   error
	runs  *atomic.Int64
}

func (j countingJob) Key() string { return j.key }

func (j countingJob) Run(context.Context) (Result, error) {
	j.runs.Add(1)
	return Result{Value: j.value}, j.err
}

func TestNewWorkers(t *testing.T) {
	if got := New(3).Workers(); got != 3 {
		t.Errorf("New(3).Workers() = %d", got)
	}
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-1).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-1).Workers() = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestRunCachesByKey(t *testing.T) {
	eng := New(4)
	var runs atomic.Int64
	j := countingJob{key: "same", value: 7, runs: &runs}
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = j
	}
	results, err := eng.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Value != 7 {
			t.Errorf("result %d = %g, want 7", i, r.Value)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("job with one key ran %d times, want 1 (singleflight)", got)
	}
	if got := eng.CacheSize(); got != 1 {
		t.Errorf("CacheSize = %d, want 1", got)
	}
}

func TestRunEmptyKeyNotCached(t *testing.T) {
	eng := New(2)
	var runs atomic.Int64
	j := countingJob{key: "", value: 1, runs: &runs}
	for i := 0; i < 3; i++ {
		if _, err := eng.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("uncacheable job ran %d times, want 3", got)
	}
	if got := eng.CacheSize(); got != 0 {
		t.Errorf("CacheSize = %d, want 0", got)
	}
}

func TestRunCachesErrors(t *testing.T) {
	eng := New(2)
	var runs atomic.Int64
	boom := errors.New("boom")
	j := countingJob{key: "failing", err: boom, runs: &runs}
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(context.Background(), j); !errors.Is(err, boom) {
			t.Fatalf("run %d: err = %v, want boom", i, err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("failing job ran %d times, want 1 (errors memoized)", got)
	}
}

func TestRunBatchInputOrder(t *testing.T) {
	eng := New(8)
	var runs atomic.Int64
	jobs := make([]Job, 50)
	for i := range jobs {
		jobs[i] = countingJob{key: fmt.Sprintf("j%d", i), value: float64(i), runs: &runs}
	}
	results, err := eng.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Value != float64(i) {
			t.Fatalf("result %d = %g: batch results not in input order", i, r.Value)
		}
	}
}

// TestForEachReportsLowestIndexError: RunBatch attempts every job and
// reports the lowest-index failure, whatever the pool size.
func TestForEachReportsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var runs atomic.Int64
		jobs := make([]Job, 20)
		for i := range jobs {
			j := countingJob{key: fmt.Sprintf("lowest|%d", i), value: float64(i), runs: &runs}
			if i%2 == 1 {
				j.err = fmt.Errorf("fail at %d", i)
			}
			jobs[i] = j
		}
		results, err := New(workers).RunBatch(context.Background(), jobs)
		if err == nil || err.Error() != "fail at 1" {
			t.Errorf("workers=%d: err = %v, want the lowest-index failure (index 1)", workers, err)
		}
		if results != nil {
			t.Errorf("workers=%d: results = %v alongside an error, want nil", workers, results)
		}
		if got := runs.Load(); got != int64(len(jobs)) {
			t.Errorf("workers=%d: %d of %d jobs ran; every job must be attempted", workers, got, len(jobs))
		}
	}
}

// TestForEachEmpty: an empty fan-out never calls eval or emit, and the
// collectors built on it return empty, error-free results.
func TestForEachEmpty(t *testing.T) {
	Ordered(context.Background(), 4, 0, func(int) (int, bool) {
		t.Error("eval called for n = 0")
		return 0, true
	}, func(int, int) bool {
		t.Error("emit called for n = 0")
		return true
	})
	if res, err := New(4).RunBatch(context.Background(), nil); err != nil || len(res) != 0 {
		t.Errorf("RunBatch(nil) = %v, %v; want empty, nil", res, err)
	}
	if cells, err := New(4).Sweep(context.Background(), nil, 1e3); err != nil || len(cells) != 0 {
		t.Errorf("Sweep(nil) = %v, %v; want empty, nil", cells, err)
	}
}

func TestGridOrder(t *testing.T) {
	cells := Grid(2, 3)
	want := []Cell{{2, 1, 0}, {2, 2, 0}, {2, 2, 1}, {2, 3, 0}, {2, 3, 1}, {2, 3, 2}}
	if len(cells) != len(want) {
		t.Fatalf("Grid(2,3) has %d cells, want %d", len(cells), len(want))
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Errorf("cell %d = %+v, want %+v", i, cells[i], want[i])
		}
	}
}

// TestSweepParallelMatchesSequential is the determinism contract: a
// parallel Sweep over the Theorem 1 grid must agree field-for-field
// with the sequential baseline. Run under -race this also exercises
// the pool for data races.
func TestSweepParallelMatchesSequential(t *testing.T) {
	cells := Grid(2, 6)
	seq, err := New(1).Sweep(context.Background(), cells, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(8).Sweep(context.Background(), cells, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("length mismatch: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Cell != p.Cell || s.Regime != p.Regime || s.Evaluated != p.Evaluated {
			t.Errorf("cell %d: metadata mismatch: %+v vs %+v", i, s, p)
		}
		if !floatsEqual(s.Closed, p.Closed) {
			t.Errorf("cell %d: Closed %v vs %v", i, s.Closed, p.Closed)
		}
		if s.Eval.WorstRatio != p.Eval.WorstRatio {
			t.Errorf("cell %d: WorstRatio %v vs %v (parallel sweep must be bit-identical)",
				i, s.Eval.WorstRatio, p.Eval.WorstRatio)
		}
	}
}

// floatsEqual treats two NaNs as equal (unsolvable cells).
func floatsEqual(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func TestSweepRegimes(t *testing.T) {
	// {2,2,2} is unsolvable (f >= k), {2,4,1} is trivial (k >= m(f+1)),
	// {2,3,1} is the search regime.
	results, err := New(4).Sweep(context.Background(), []Cell{{2, 2, 2}, {2, 4, 1}, {2, 3, 1}}, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; r.Regime != bounds.RegimeUnsolvable || r.Evaluated || !math.IsNaN(r.Closed) {
		t.Errorf("unsolvable cell: %+v", r)
	}
	if r := results[1]; r.Regime != bounds.RegimeTrivial || r.Evaluated || r.Closed != 1 {
		t.Errorf("trivial cell: %+v", r)
	}
	r := results[2]
	if r.Regime != bounds.RegimeSearch || !r.Evaluated {
		t.Fatalf("search cell: %+v", r)
	}
	if !(r.Eval.WorstRatio > 1) || r.Eval.WorstRatio > r.Closed*(1+1e-9) {
		t.Errorf("measured ratio %g outside (1, closed=%g]", r.Eval.WorstRatio, r.Closed)
	}
	if gap := r.RelGap(); !(gap < 0.05) {
		t.Errorf("rel gap %g too large at horizon 1e4", gap)
	}
}

func TestSweepCacheReuse(t *testing.T) {
	eng := New(4)
	cells := Grid(2, 5)
	first, err := eng.Sweep(context.Background(), cells, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	size := eng.CacheSize()
	if size == 0 {
		t.Fatal("sweep populated no cache entries")
	}
	second, err := eng.Sweep(context.Background(), cells, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheSize(); got != size {
		t.Errorf("repeat sweep grew the cache: %d -> %d", size, got)
	}
	for i := range first {
		if first[i].Eval.WorstRatio != second[i].Eval.WorstRatio {
			t.Errorf("cell %d: cached sweep diverged", i)
		}
	}
}

func TestVerifyUpperJobMatchesDirectEvaluation(t *testing.T) {
	s, err := strategy.NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := adversary.ExactRatio(context.Background(), s, 1, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(2).Run(context.Background(), VerifyUpper{M: 2, K: 3, F: 1, Horizon: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != direct.WorstRatio || res.Eval.WorstRatio != direct.WorstRatio {
		t.Errorf("job ratio %g vs direct %g", res.Value, direct.WorstRatio)
	}
}

func TestExactAndGridRatioJobs(t *testing.T) {
	s, err := strategy.NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(4)
	exact, err := eng.Run(context.Background(), ExactRatio{Strategy: s, Faults: 1, Horizon: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := adversary.ExactRatio(context.Background(), s, 1, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Value != direct.WorstRatio {
		t.Errorf("job ratio %g vs direct %g", exact.Value, direct.WorstRatio)
	}
	if eng.CacheSize() != 1 {
		t.Errorf("CacheSize = %d, want 1 key", eng.CacheSize())
	}
}

func TestRandomizedTrialsDeterministicBySeed(t *testing.T) {
	j := RandomizedTrials{Base: 3.59, X: 10, Samples: 200, Seed: 42}
	a, err := New(1).Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(4).Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value {
		t.Errorf("same seed gave %g and %g", a.Value, b.Value)
	}
	c, err := New(1).Run(context.Background(), RandomizedTrials{Base: 3.59, X: 10, Samples: 200, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if c.Value == a.Value {
		t.Errorf("different seeds gave identical estimates %g (suspicious)", a.Value)
	}
	// The estimate must sit near the closed form 1 + (1+b)/ln b.
	want := 1 + (1+3.59)/math.Log(3.59)
	if math.Abs(a.Value-want)/want > 0.25 {
		t.Errorf("MC estimate %g far from closed form %g", a.Value, want)
	}
}

func TestSweepErrorIsDeterministic(t *testing.T) {
	// m = 0 is invalid; Classify rejects it. Both pool sizes must
	// report the same (lowest-index) failing cell.
	cells := []Cell{{2, 3, 1}, {0, 1, 0}, {0, 2, 0}}
	_, errSeq := New(1).Sweep(context.Background(), cells, 1e3)
	_, errPar := New(8).Sweep(context.Background(), cells, 1e3)
	if errSeq == nil || errPar == nil {
		t.Fatal("invalid cells must fail the sweep")
	}
	if errSeq.Error() != errPar.Error() {
		t.Errorf("sequential error %q vs parallel error %q", errSeq, errPar)
	}
}

func TestStatsHitMissAccounting(t *testing.T) {
	eng := New(4)
	var runs atomic.Int64
	// 3 distinct keys, 5 Runs each: 3 misses, 12 hits.
	for round := 0; round < 5; round++ {
		for _, key := range []string{"a", "b", "c"} {
			if _, err := eng.Run(context.Background(), countingJob{key: key, value: 1, runs: &runs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := eng.Stats()
	if st.Misses != 3 || st.Hits != 12 {
		t.Errorf("Stats = %+v, want 3 misses / 12 hits", st)
	}
	if st.Size != 3 || st.Evictions != 0 {
		t.Errorf("Stats = %+v, want size 3, no evictions", st)
	}
	// Uncacheable jobs must not move the counters.
	if _, err := eng.Run(context.Background(), countingJob{key: "", value: 1, runs: &runs}); err != nil {
		t.Fatal(err)
	}
	if st2 := eng.Stats(); st2.Hits != st.Hits || st2.Misses != st.Misses {
		t.Errorf("empty-key Run changed counters: %+v -> %+v", st, st2)
	}
}

func TestStatsConcurrentAccounting(t *testing.T) {
	// Hammer one engine from many goroutines over a small key space:
	// every Run is either a hit or a miss, and every miss corresponds
	// to exactly one job execution (no eviction, so runs == misses).
	eng := New(8)
	var runs atomic.Int64
	const goroutines, perG, keys = 16, 50, 7
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("k%d", (g+i)%keys)
				if _, err := eng.Run(context.Background(), countingJob{key: key, value: 1, runs: &runs}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := eng.Stats()
	if total := st.Hits + st.Misses; total != goroutines*perG {
		t.Errorf("hits %d + misses %d = %d, want %d", st.Hits, st.Misses, total, goroutines*perG)
	}
	if st.Misses != runs.Load() {
		t.Errorf("misses %d != job executions %d", st.Misses, runs.Load())
	}
	if st.Misses < keys {
		t.Errorf("misses %d < distinct keys %d", st.Misses, keys)
	}
}

func TestLRUEviction(t *testing.T) {
	eng := NewWithCache(2, 2)
	var runs atomic.Int64
	for _, key := range []string{"a", "b", "c"} {
		if _, err := eng.Run(context.Background(), countingJob{key: key, value: 1, runs: &runs}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("Stats = %+v, want size 2 and 1 eviction ('a' dropped)", st)
	}
	// "b" survives (hit); "a" was evicted (miss, evicting "c").
	eng.Run(context.Background(), countingJob{key: "b", value: 1, runs: &runs})
	eng.Run(context.Background(), countingJob{key: "a", value: 1, runs: &runs})
	st = eng.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Evictions != 2 {
		t.Errorf("Stats = %+v, want 1 hit, 4 misses, 2 evictions", st)
	}
	// After touching "a" and "b" most recently, "c" is the victim: a
	// re-Run of "b" must still hit.
	eng.Run(context.Background(), countingJob{key: "b", value: 1, runs: &runs})
	if st = eng.Stats(); st.Hits != 2 {
		t.Errorf("touch order not preserved: %+v", st)
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	eng := NewWithCache(1, 2)
	var runs atomic.Int64
	eng.Run(context.Background(), countingJob{key: "a", value: 1, runs: &runs})
	eng.Run(context.Background(), countingJob{key: "b", value: 1, runs: &runs})
	eng.Run(context.Background(), countingJob{key: "a", value: 1, runs: &runs}) // touch "a"
	eng.Run(context.Background(), countingJob{key: "c", value: 1, runs: &runs}) // evicts "b"
	eng.Run(context.Background(), countingJob{key: "a", value: 1, runs: &runs}) // must still hit
	st := eng.Stats()
	if st.Hits != 2 || st.Misses != 3 || st.Evictions != 1 {
		t.Errorf("Stats = %+v, want 2 hits / 3 misses / 1 eviction", st)
	}
}

func TestSweepReturnsCellError(t *testing.T) {
	cells := []Cell{{2, 3, 1}, {0, 1, 0}}
	_, err := New(1).Sweep(context.Background(), cells, 1e3)
	if err == nil {
		t.Fatal("invalid cell must fail the sweep")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("Sweep error %v is not a *CellError", err)
	}
	if ce.Cell != (Cell{0, 1, 0}) {
		t.Errorf("CellError.Cell = %v, want {0 1 0}", ce.Cell)
	}
	if !errors.Is(err, bounds.ErrInvalidParams) {
		t.Errorf("CellError must unwrap to the underlying bounds error, got %v", err)
	}
}

// panickingJob simulates a buggy plugin job.
type panickingJob struct{ key string }

func (j panickingJob) Key() string { return j.key }
func (j panickingJob) Run(context.Context) (Result, error) {
	panic("job bug")
}

func TestRunRecoversJobPanic(t *testing.T) {
	eng := New(2)
	_, err := eng.Run(context.Background(), panickingJob{key: "boom"})
	if !errors.Is(err, ErrJobPanic) {
		t.Fatalf("panicking job returned %v, want ErrJobPanic", err)
	}
	// The singleflight entry must be completed (done closed), not
	// poisoned: a retry returns the memoized error instantly instead of
	// blocking forever.
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), panickingJob{key: "boom"})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrJobPanic) {
			t.Errorf("retry returned %v, want memoized ErrJobPanic", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("retry of a panicked key blocked: done channel never closed")
	}
	// Uncached jobs are protected too.
	if _, err := eng.Run(context.Background(), panickingJob{key: ""}); !errors.Is(err, ErrJobPanic) {
		t.Errorf("uncached panicking job returned %v", err)
	}
}

func TestShardedCacheBoundAndSingleflight(t *testing.T) {
	// A bounded cache never exceeds its capacity, and singleflight
	// still collapses concurrent Runs of one key.
	eng := NewWithCache(8, 64)
	var runs atomic.Int64
	for i := 0; i < 500; i++ {
		if _, err := eng.Run(context.Background(), countingJob{key: fmt.Sprintf("k%d", i), value: 1, runs: &runs}); err != nil {
			t.Fatal(err)
		}
	}
	if size := eng.CacheSize(); size > 64 {
		t.Errorf("cache size %d exceeds capacity 64", size)
	}
	if st := eng.Stats(); st.Evictions == 0 {
		t.Error("500 keys into a 64-slot cache evicted nothing")
	}
	runs.Store(0)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Run(context.Background(), countingJob{key: "flight", value: 1, runs: &runs}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("concurrent Runs of one key executed %d times, want 1 (singleflight)", got)
	}
}

func TestShardedCacheConcurrentDistinctKeys(t *testing.T) {
	// Hammer distinct keys under -race: every miss is one execution,
	// hits+misses account for every Run, and values stay keyed
	// correctly.
	eng := NewWithCache(8, 0)
	var runs atomic.Int64
	const goroutines, perG, keys = 16, 60, 23
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := (g*perG + i) % keys
				res, err := eng.Run(context.Background(), countingJob{key: fmt.Sprintf("k%d", id), value: float64(id), runs: &runs})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Value != float64(id) {
					t.Errorf("key k%d returned %g", id, res.Value)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := eng.Stats()
	if st.Hits+st.Misses != goroutines*perG {
		t.Errorf("hits %d + misses %d != %d Runs", st.Hits, st.Misses, goroutines*perG)
	}
	if st.Misses != runs.Load() {
		t.Errorf("misses %d != executions %d", st.Misses, runs.Load())
	}
	if st.Size != keys {
		t.Errorf("cache size %d, want %d distinct keys", st.Size, keys)
	}
}

func TestFRangeRatioJobMatchesPerFJobs(t *testing.T) {
	// One FRangeRatio answers the whole fault range with the numbers the
	// per-f ExactRatio jobs produce, from one table build, and caches
	// under one key.
	s, err := strategy.NewCyclicExponential(2, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(4)
	res, err := eng.Run(context.Background(), FRangeRatio{Strategy: s, MaxF: 2, Horizon: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) != 3 {
		t.Fatalf("Evals has %d entries, want 3", len(res.Evals))
	}
	if res.Value != res.Evals[2].WorstRatio || res.Eval != res.Evals[2] {
		t.Errorf("headline fields disagree with Evals[MaxF]: %+v", res)
	}
	for f := 0; f <= 2; f++ {
		per, err := eng.Run(context.Background(), ExactRatio{Strategy: s, Faults: f, Horizon: 1e4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evals[f] != per.Eval {
			t.Errorf("f=%d: FRangeRatio %+v, ExactRatio %+v", f, res.Evals[f], per.Eval)
		}
	}
	if eng.CacheSize() != 4 { // frange + three per-f jobs
		t.Errorf("CacheSize = %d, want 4", eng.CacheSize())
	}
	if (FRangeRatio{}).Key() != "" {
		t.Error("nil-strategy FRangeRatio must opt out of caching")
	}
	if _, err := eng.Run(context.Background(), FRangeRatio{Strategy: s, MaxF: 5, Horizon: 1e4}); err == nil {
		t.Error("MaxF >= K must fail")
	}
}
