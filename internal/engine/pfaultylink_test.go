package engine

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/pfaulty"
)

// pfaultyAnswer returns the jobs of one p-faulty simulate answer: one
// PFaultyTrials per log-grid distance, sharing everything else.
func pfaultyAnswer(t *testing.T, p, horizon float64, points, samples int, seed int64) []Job {
	t.Helper()
	base, _, err := pfaulty.OptimalBase(p)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, x := range LogGrid(horizon, points) {
		jobs = append(jobs, PFaultyTrials{Base: base, P: p, X: x, Samples: samples, Seed: seed})
	}
	return jobs
}

// sameJobResult reports whether a stream row is the lone job's answer
// in every bit: value, metadata and error text.
func sameJobResult(got JobResult, want Result, werr error) bool {
	if (got.Err == nil) != (werr == nil) || (werr != nil && got.Err.Error() != werr.Error()) {
		return false
	}
	return math.Float64bits(got.Result.Value) == math.Float64bits(want.Value) &&
		got.Result.Samples == want.Samples && got.Result.Seed == want.Seed && got.Result.Clamped == want.Clamped
}

// checkStreamMatchesLone runs jobs through eng.RunStream and checks
// every row against engine.Run of the lone job on a fresh engine.
func checkStreamMatchesLone(t *testing.T, eng *Engine, jobs []Job) {
	t.Helper()
	n := 0
	for jr := range eng.RunStream(context.Background(), jobs) {
		want, werr := New(1).Run(context.Background(), jobs[jr.Index])
		if !sameJobResult(jr, want, werr) {
			t.Fatalf("row %d (%s): stream (%+v, %v), lone (%+v, %v)", jr.Index, jobs[jr.Index].Key(), jr.Result, jr.Err, want, werr)
		}
		n++
	}
	if n != len(jobs) {
		t.Fatalf("stream emitted %d of %d rows", n, len(jobs))
	}
}

// TestRunStreamPFaultyMatchesLoneJobs: an answer's rows through the
// linked stream equal each lone job's engine.Run in every bit, at
// workers 1 and 4, with and without the pass table, and in a stream
// mixing two answers with other jobs.
func TestRunStreamPFaultyMatchesLoneJobs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, samples := range []int{255, 2000} {
			checkStreamMatchesLone(t, New(workers), pfaultyAnswer(t, 0.3, 1e4, 48, samples, 11))
		}
		mixed := append(pfaultyAnswer(t, 0.05, 100, 8, 500, 3), countJob{id: 1})
		mixed = append(mixed, pfaultyAnswer(t, 0.05, 100, 8, 500, 4)...)
		mixed = append(mixed, countJob{id: 2, fail: true})
		mixed = append(mixed, pfaultyAnswer(t, 0.9, 1e3, 5, 300, 4)...)
		checkStreamMatchesLone(t, New(workers), mixed)
	}
}

// TestRunStreamPFaultyLinksOnlyMisses: a partly cached answer links
// only its misses to the shared evaluation, and a fully cached one
// links nothing and runs no job.
func TestRunStreamPFaultyLinksOnlyMisses(t *testing.T) {
	jobs := pfaultyAnswer(t, 0.5, 1e3, 12, 1000, 5)
	eng := New(2)
	var misses []float64
	for i, j := range jobs {
		if i%3 == 0 {
			if _, err := eng.Run(context.Background(), j); err != nil {
				t.Fatal(err)
			}
			continue
		}
		misses = append(misses, j.(PFaultyTrials).X)
	}
	var curve *pfaultyCurve
	for i, j := range eng.linkPFaulty(jobs) {
		lj, linked := j.(linkedPFaulty)
		if linked == (i%3 == 0) {
			t.Fatalf("job %d: linked %v, cached %v", i, linked, i%3 == 0)
		}
		if linked {
			if curve != nil && lj.curve != curve {
				t.Fatalf("job %d: a second curve for one answer", i)
			}
			curve = lj.curve
		}
	}
	if curve == nil || len(curve.xs) != len(misses) {
		t.Fatalf("curve over %v, want the misses %v", curve, misses)
	}
	for n, x := range misses {
		if curve.xs[n] != x {
			t.Fatalf("curve distance %d is %v, want %v", n, curve.xs[n], x)
		}
	}
	checkStreamMatchesLone(t, eng, jobs)

	before := eng.Stats().Misses
	if linked := eng.linkPFaulty(jobs); &linked[0] != &jobs[0] {
		t.Error("a fully cached answer was linked")
	}
	checkStreamMatchesLone(t, eng, jobs)
	if after := eng.Stats().Misses; after != before {
		t.Errorf("a fully cached answer ran %d jobs", after-before)
	}
}

// cancelAfter is a context whose Err turns Canceled after n checks.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPFaultyCurveCancelKeepsNothing: a pass whose job is cancelled
// mid-way keeps nothing, and the next linked job recomputes under its
// own ctx with the lone bits.
func TestPFaultyCurveCancelKeepsNothing(t *testing.T) {
	jobs := pfaultyAnswer(t, 0.3, 1e3, 6, 20000, 9)
	linked := New(1).linkPFaulty(jobs)
	first := linked[0].(linkedPFaulty)
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(10) // 10 of the 313 checks of a 20,000-sample pass
	if _, err := first.Run(ctx); err != context.Canceled {
		t.Fatalf("cancelled first job: error %v, want context.Canceled", err)
	}
	if first.curve.errs != nil {
		t.Fatal("a cancelled pass was kept")
	}
	for _, i := range []int{3, 0} {
		got, err := linked[i].Run(context.Background())
		want, werr := jobs[i].Run(context.Background())
		if !sameJobResult(JobResult{Result: got, Err: err}, want, werr) {
			t.Fatalf("job %d after the cancelled pass: (%+v, %v), lone (%+v, %v)", i, got, err, want, werr)
		}
	}
}

// TestRunStreamPFaultyCancelledThenRerun: a stream cancelled after its
// first row leaves the engine able to serve the same answer with the
// lone bits.
func TestRunStreamPFaultyCancelledThenRerun(t *testing.T) {
	jobs := pfaultyAnswer(t, 0.3, 1e3, 24, 20000, 13)
	eng := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	for range eng.RunStream(ctx, jobs) {
		cancel()
	}
	cancel()
	waitFor(t, "the cancelled stream's jobs to stop", func() bool { return eng.Stats().InFlight == 0 })
	checkStreamMatchesLone(t, eng, jobs)
}
