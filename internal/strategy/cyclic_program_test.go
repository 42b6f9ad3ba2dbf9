package strategy

import (
	"testing"

	"repro/internal/bounds"
	"repro/internal/trajectory"
)

// TestCyclicProgramBitIdentity pins the tentpole rebase: the DSL-scripted
// cyclic program must reproduce the native generation loop (the
// production AppendRounds fast path) bit for bit — same rounds, same
// rays, same float64 turn values — across the Theorem-1 grid and a
// spread of horizons. The program's content hash is the strategy's
// cache identity, so any divergence would let the hash vouch for
// rounds the built-in never produces.
func TestCyclicProgramBitIdentity(t *testing.T) {
	horizons := []float64{1.0000001, 1.5, 3, 10, 250, 2000, 1e5, 2.5e6}
	cells := 0
	for _, m := range []int{2, 3, 5} {
		for k := 1; k <= 7; k++ {
			for f := 0; f < k; f++ {
				if regime, err := bounds.Classify(m, k, f); err != nil || regime != bounds.RegimeSearch {
					continue
				}
				s, err := NewCyclicExponential(m, k, f)
				if err != nil {
					t.Fatalf("m=%d k=%d f=%d: %v", m, k, f, err)
				}
				cells++
				for r := 0; r < k; r++ {
					for _, h := range horizons {
						got, err := s.programAppendRounds(nil, r, h)
						if err != nil {
							t.Fatalf("m=%d k=%d f=%d r=%d h=%g: program: %v", m, k, f, r, h, err)
						}
						want, err := s.AppendRounds(nil, r, h)
						if err != nil {
							t.Fatalf("m=%d k=%d f=%d r=%d h=%g: native: %v", m, k, f, r, h, err)
						}
						if len(got) != len(want) {
							t.Fatalf("m=%d k=%d f=%d r=%d h=%g: program %d rounds, native %d",
								m, k, f, r, h, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("m=%d k=%d f=%d r=%d h=%g round %d: program %+v, native %+v (must be bit-identical)",
									m, k, f, r, h, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
	if cells < 20 {
		t.Fatalf("only %d search-regime cells exercised; the grid walk is broken", cells)
	}
}

// TestCyclicProgramPrefixStability pins the prefix property documented
// on AppendRounds: the round sequence for a smaller horizon is a
// bit-identical prefix of the sequence for a larger one.
func TestCyclicProgramPrefixStability(t *testing.T) {
	s, err := NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		long, err := s.AppendRounds(nil, r, 1e5)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []float64{2, 50, 1000, 4e4} {
			short, err := s.AppendRounds(nil, r, h)
			if err != nil {
				t.Fatal(err)
			}
			if len(short) > len(long) {
				t.Fatalf("r=%d h=%g: prefix longer than the extension", r, h)
			}
			for i := range short {
				if short[i] != long[i] {
					t.Fatalf("r=%d h=%g round %d: %+v != %+v — extension rewrote the prefix",
						r, h, i, short[i], long[i])
				}
			}
		}
	}
}

// TestCyclicProgramAppendsInPlace pins the pooling contract AppendRounds
// shares with the adversary's scratch reuse: appending into a
// preallocated slice grows it without reallocating when capacity
// suffices.
func TestCyclicProgramAppendsInPlace(t *testing.T) {
	s, err := NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.AppendRounds(nil, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trajectory.Round, 0, 4*len(first))
	dst, err := s.AppendRounds(buf, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if &buf[:1][0] != &dst[:1][0] {
		t.Error("AppendRounds reallocated despite sufficient capacity")
	}
	if len(dst) != len(first) {
		t.Errorf("appended %d rounds, want %d", len(dst), len(first))
	}
}
