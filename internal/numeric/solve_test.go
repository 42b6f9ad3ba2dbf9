package numeric

import (
	"math"
	"testing"
)

func TestGoldenSectionParabola(t *testing.T) {
	f := func(x float64) float64 { return (x - 3) * (x - 3) }
	min, err := GoldenSection(f, 0, 10, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(min, 3, 1e-8) {
		t.Errorf("GoldenSection min = %.12g, want 3", min)
	}
}

func TestGoldenSectionReversedInterval(t *testing.T) {
	f := func(x float64) float64 { return math.Abs(x - 1) }
	min, err := GoldenSection(f, 5, -5, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(min, 1, 1e-8) {
		t.Errorf("GoldenSection min on reversed interval = %.12g, want 1", min)
	}
}
