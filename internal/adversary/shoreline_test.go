package adversary

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
)

// secBound is the spread-ray family's closed-form worst ratio,
// sec((f+1)*pi/k) — the analytic value the evaluator must reproduce.
func secBound(k, f int) float64 {
	return 1 / math.Cos(float64(f+1)*math.Pi/float64(k))
}

func TestShorelineClosedForm(t *testing.T) {
	cases := []struct{ k, f int }{
		{3, 0}, {4, 0}, {5, 0}, {5, 1}, {7, 2}, {8, 2}, {9, 3}, {12, 4},
	}
	for _, tc := range cases {
		se, err := NewShorelineEvaluator(SpreadHeadings(tc.k), 100)
		if err != nil {
			t.Fatalf("k=%d: %v", tc.k, err)
		}
		ev, err := se.ExactRatio(context.Background(), tc.f)
		se.Release()
		if err != nil {
			t.Fatalf("k=%d f=%d: %v", tc.k, tc.f, err)
		}
		want := secBound(tc.k, tc.f)
		if math.Abs(ev.WorstRatio-want) > 1e-12*want {
			t.Errorf("k=%d f=%d: ratio %.15g, want sec((f+1)pi/k) = %.15g",
				tc.k, tc.f, ev.WorstRatio, want)
		}
		if ev.WorstRay != 0 {
			t.Errorf("k=%d f=%d: WorstRay = %d, want 0 (planar placements have no ray)",
				tc.k, tc.f, ev.WorstRay)
		}
		if ev.WorstX < 0 || ev.WorstX >= 2*math.Pi {
			t.Errorf("k=%d f=%d: WorstX = %g outside [0, 2pi)", tc.k, tc.f, ev.WorstX)
		}
	}
}

func TestShorelineFRangeMatchesExact(t *testing.T) {
	se, err := NewShorelineEvaluator(SpreadHeadings(11), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Release()
	evals, err := se.FRange(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 5 {
		t.Fatalf("FRange returned %d evaluations, want 5", len(evals))
	}
	for f, ev := range evals {
		single, err := se.ExactRatio(context.Background(), f)
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if ev != single {
			t.Errorf("f=%d: FRange %+v, ExactRatio %+v", f, ev, single)
		}
	}
}

// TestShorelineDenseGridNeverExceeds cross-checks the exact candidate
// sweep against a dense uniform sample of shoreline headings computed
// independently (direct secants, no trajectory code): no sampled
// heading may beat the sweep's supremum, and the sample must approach
// it.
func TestShorelineDenseGridNeverExceeds(t *testing.T) {
	const k, f = 9, 2
	headings := SpreadHeadings(k)
	se, err := NewShorelineEvaluator(headings, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Release()
	ev, err := se.ExactRatio(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	hits := make([]float64, k)
	best := 0.0
	for i := 0; i < n; i++ {
		phi := 2 * math.Pi * float64(i) / n
		for r, th := range headings {
			c := math.Cos(th - phi)
			if c > 1e-9 {
				hits[r] = 1 / c
			} else {
				hits[r] = math.Inf(1)
			}
		}
		sort.Float64s(hits)
		if v := hits[f]; !math.IsInf(v, 1) && v > best {
			best = v
		}
	}
	if best > ev.WorstRatio*(1+1e-9) {
		t.Errorf("dense grid found ratio %.15g above the sweep supremum %.15g", best, ev.WorstRatio)
	}
	if best < ev.WorstRatio*(1-1e-3) {
		t.Errorf("dense grid max %.15g is far below the sweep supremum %.15g", best, ev.WorstRatio)
	}
}

// TestShorelineUncovered pins the valid-regime boundary: with k <=
// 2(f+1) robots there is a shoreline heading whose (f+1)-st smallest
// angular distance reaches pi/2, so the placement is unreachable and
// the sweep reports ErrUncovered — the planar analog of a line target
// not covered f+1 times.
func TestShorelineUncovered(t *testing.T) {
	for _, tc := range []struct{ k, f int }{{3, 1}, {4, 1}, {2, 0}, {6, 2}} {
		se, err := NewShorelineEvaluator(SpreadHeadings(tc.k), 100)
		if err != nil {
			t.Fatalf("k=%d: %v", tc.k, err)
		}
		_, err = se.ExactRatio(context.Background(), tc.f)
		se.Release()
		if !errors.Is(err, ErrUncovered) {
			t.Errorf("k=%d f=%d: err = %v, want ErrUncovered", tc.k, tc.f, err)
		}
	}
}

func TestShorelineBadParams(t *testing.T) {
	if _, err := NewShorelineEvaluator(nil, 100); !errors.Is(err, ErrBadParams) {
		t.Errorf("no headings: err = %v, want ErrBadParams", err)
	}
	if _, err := NewShorelineEvaluator([]float64{0, math.NaN()}, 100); !errors.Is(err, ErrBadParams) {
		t.Errorf("NaN heading: err = %v, want ErrBadParams", err)
	}
	for _, h := range []float64{0, 1, -3, math.Inf(1), math.NaN()} {
		if _, err := NewShorelineEvaluator(SpreadHeadings(3), h); !errors.Is(err, ErrBadParams) {
			t.Errorf("horizon %g: err = %v, want ErrBadParams", h, err)
		}
	}
	se, err := NewShorelineEvaluator(SpreadHeadings(3), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Release()
	for _, f := range []int{-1, 3, 7} {
		if _, err := se.ExactRatio(context.Background(), f); !errors.Is(err, ErrBadParams) {
			t.Errorf("faults %d: err = %v, want ErrBadParams", f, err)
		}
		if _, err := se.FRange(context.Background(), f); !errors.Is(err, ErrBadParams) {
			t.Errorf("FRange maxF %d: err = %v, want ErrBadParams", f, err)
		}
	}
}

func TestShorelineCancellation(t *testing.T) {
	// Irregular headings so the pairwise bisectors do not collapse onto
	// a small shared grid: enough distinct candidates to reach the
	// cooperative cancellation cadence.
	headings := make([]float64, 20)
	for i := range headings {
		headings[i] = 0.05 + 0.27*float64(i) + 0.013*float64(i*i)
	}
	se, err := NewShorelineEvaluator(headings, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := se.ExactRatio(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("ExactRatio under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := se.FRange(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("FRange under cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestShorelinePoolReuse exercises the release/rebuild cycle: a pooled
// evaluator rebuilt for different parameters answers exactly as a
// fresh one.
func TestShorelinePoolReuse(t *testing.T) {
	for i := 0; i < 4; i++ {
		k := 5 + 2*i
		se, err := NewShorelineEvaluator(SpreadHeadings(k), 50)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := se.ExactRatio(context.Background(), 1)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := secBound(k, 1)
		if math.Abs(ev.WorstRatio-want) > 1e-12*want {
			t.Errorf("k=%d (pool round %d): ratio %.15g, want %.15g", k, i, ev.WorstRatio, want)
		}
		se.Release()
	}
}

// FuzzShorelineSweep turns fuzz bytes into a straight-ray shoreline
// strategy — byte 0 picks k <= 12, byte 1 a horizon in (1, 1e6], and
// every later pair of bytes one heading in [-2pi, 2pi), so robots may
// share headings and bisectors may coincide — and checks the sweep's
// two query forms against each other and against a dense grid: FRange
// and ExactRatio fail with identical text or both succeed at every
// fault count, a successful FRange equals ExactRatio field by field at
// every fault count it covers, and no heading of a 4,096-point grid,
// evaluated by direct secants with no trajectory code, beats a covered
// fault count's supremum by more than 1e-9 relative.
//
// CI runs this for a short -fuzztime as a smoke gate; `go test -fuzz
// FuzzShorelineSweep ./internal/adversary` explores further.
func FuzzShorelineSweep(f *testing.F) {
	f.Add([]byte{4, 128, 0x80, 0x00, 0x9a, 0x66, 0xb3, 0x33, 0xcc, 0xcd, 0xe6, 0x66})
	f.Add([]byte{8, 255, 0x80, 0x00, 0x90, 0x00, 0xa0, 0x00, 0xb0, 0x00, 0xc0, 0x00, 0xd0, 0x00, 0xe0, 0x00, 0xf0, 0x00, 0x00, 0x00})
	f.Add([]byte{5, 0, 0x80, 0x00, 0x80, 0x00, 0xa0, 0x00, 0xc0, 0x00, 0x60, 0x00, 0x31, 0x7f})
	f.Add([]byte{11, 40, 0x81, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k := min(1+int(data[0])%12, (len(data)-2)/2)
		h := math.Pow(10, 6*float64(int(data[1])+1)/256)
		headings := make([]float64, k)
		for i := range headings {
			u := int(data[2+2*i])<<8 | int(data[3+2*i])
			headings[i] = float64(u-32768) * math.Pi / 16384
		}
		se, err := NewShorelineEvaluator(headings, h)
		if err != nil {
			t.Fatalf("NewShorelineEvaluator(%v, %g): %v", headings, h, err)
		}
		defer se.Release()
		ctx := context.Background()

		exact := make([]Evaluation, 0, k) // ExactRatio of each covered fault count
		for g := 0; g < k; g++ {
			ev, err := se.ExactRatio(ctx, g)
			evals, ferr := se.FRange(ctx, g)
			var top Evaluation
			if ferr == nil {
				top = evals[g]
			}
			sameOutcome(t, fmt.Sprintf("FRange(%d) against ExactRatio", g), top, ferr, ev, err)
			if err != nil {
				continue
			}
			if len(exact) != g {
				t.Fatalf("fault count %d covered but %d is not", g, len(exact))
			}
			for j, fr := range evals[:g] {
				if fr != exact[j] {
					t.Fatalf("FRange(%d)[%d] = %+v, ExactRatio(%d) = %+v", g, j, fr, j, exact[j])
				}
			}
			exact = append(exact, ev)
		}
		if len(exact) == 0 {
			return
		}

		const n = 4096
		hits := make([]float64, k)
		for i := 0; i < n; i++ {
			phi := 2 * math.Pi * float64(i) / n
			for r, th := range headings {
				hits[r] = math.Inf(1)
				if c := math.Cos(th - phi); c > 0 && 1/c <= h {
					hits[r] = 1 / c
				}
			}
			sort.Float64s(hits)
			for g, ev := range exact {
				if v := hits[g]; !math.IsInf(v, 1) && v > ev.WorstRatio*(1+1e-9) {
					t.Fatalf("f=%d: grid heading %g has ratio %.17g above the sweep supremum %.17g",
						g, phi, v, ev.WorstRatio)
				}
			}
		}
	})
}
