package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/strategy"
	"repro/internal/strategy/program"
	"repro/internal/trajectory"
)

// TestFingerprintCollisionRegression pins the collision-hardening
// contract behind every engine cache key: two strategies that can
// produce different rounds must never share a fingerprint — in
// particular not because they share a display name, nearly share an
// alpha, or hash-collide across kinds. A collision here would let one
// strategy's cached evaluation answer for another.
func TestFingerprintCollisionRegression(t *testing.T) {
	mustFixed := func(name string, rounds [][]trajectory.Round) *strategy.FixedRounds {
		t.Helper()
		s, err := strategy.NewFixedRounds(name, 2, rounds)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	doubling := [][]trajectory.Round{{{Ray: 1, Turn: 1}, {Ray: 2, Turn: 2}, {Ray: 1, Turn: 4}, {Ray: 2, Turn: 8}}}
	tripling := [][]trajectory.Round{{{Ray: 1, Turn: 1}, {Ray: 2, Turn: 3}, {Ray: 1, Turn: 9}, {Ray: 2, Turn: 27}}}
	oneUlp := [][]trajectory.Round{{{Ray: 1, Turn: 1}, {Ray: 2, Turn: 2}, {Ray: 1, Turn: 4}, {Ray: 2, Turn: 8.000000000000002}}}

	cyc, err := strategy.NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	alpha := cyc.Alpha()
	cycNearby, err := strategy.NewCyclicExponentialAlpha(2, 3, 1, alpha*(1+1e-9))
	if err != nil {
		t.Fatal(err)
	}
	prog := program.MustCompile("emit(1, 2)\nemit(2, 4)\n")
	progInst, err := prog.NewAlpha(2, 1, 0, alpha)
	if err != nil {
		t.Fatal(err)
	}
	progInstOtherAlpha, err := prog.NewAlpha(2, 1, 0, alpha*(1+1e-9))
	if err != nil {
		t.Fatal(err)
	}
	raySplit, err := strategy.NewRaySplit(3, 2)
	if err != nil {
		t.Fatal(err)
	}

	strategies := []struct {
		label string
		s     strategy.Strategy
	}{
		{"fixed doubling", mustFixed("custom", doubling)},
		{"fixed tripling, same name", mustFixed("custom", tripling)},
		{"fixed doubling, one-ulp turn", mustFixed("custom", oneUlp)},
		{"cyclic alpha*", cyc},
		{"cyclic alpha* + 1e-9 (inside %.6g rounding)", cycNearby},
		{"scripted program", progInst},
		{"scripted program, nearby alpha", progInstOtherAlpha},
		{"ray split", raySplit},
	}

	keys := make(map[string]string)
	for _, tc := range strategies {
		key := ExactRatio{Strategy: tc.s, Faults: 0, Horizon: 100}.Key()
		if key == "" {
			t.Fatalf("%s: empty cache key", tc.label)
		}
		if prev, clash := keys[key]; clash {
			t.Errorf("cache-key collision: %q and %q share %q", prev, tc.label, key)
		}
		keys[key] = tc.label
	}

	if len(keys) != len(strategies) {
		t.Fatalf("%d distinct keys for %d strategies", len(keys), len(strategies))
	}
}

// TestFingerprintNameInsensitive pins the flip side: identity derives
// from content, so renaming a FixedRounds strategy must NOT split the
// cache, and reformatting a script must map to the same program hash.
func TestFingerprintNameInsensitive(t *testing.T) {
	rounds := [][]trajectory.Round{{{Ray: 1, Turn: 1}, {Ray: 2, Turn: 2}, {Ray: 1, Turn: 4}, {Ray: 2, Turn: 8}}}
	a, err := strategy.NewFixedRounds("alice", 2, rounds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := strategy.NewFixedRounds("bob", 2, rounds)
	if err != nil {
		t.Fatal(err)
	}
	ka := ExactRatio{Strategy: a, Horizon: 100}.Key()
	kb := ExactRatio{Strategy: b, Horizon: 100}.Key()
	if ka != kb {
		t.Errorf("renaming a FixedRounds split the cache:\n%s\n%s", ka, kb)
	}

	s1 := program.MustCompile("emit(1, 2)\nemit(2, 4)\n")
	s2 := program.MustCompile("// same program, different spelling\nemit(1,2)\nemit(2,  4)")
	if s1.Hash() != s2.Hash() {
		t.Errorf("formatting split the program hash:\n%s\n%s", s1.Hash(), s2.Hash())
	}
}

// TestJobKeysCarryProgramHash pins that every solver-strategy-dependent
// job key embeds the cyclic program's content hash — the property that
// retires stale cache entries if the shipped script ever changes.
func TestJobKeysCarryProgramHash(t *testing.T) {
	frag := strategy.CyclicProgram().Hash()[:16]
	jobs := []Job{
		VerifyUpper{M: 2, K: 3, F: 1, Horizon: 100},
		SimulationRun{M: 2, K: 3, F: 1, Dist: 100},
		ByzantineLineSim{K: 3, F: 1, Dist: 100},
		ByzantineLineWorst{K: 3, F: 1, Horizon: 100},
	}
	for _, j := range jobs {
		if key := j.Key(); !strings.Contains(key, "sp="+frag) {
			t.Errorf("key %q does not embed the cyclic program hash fragment %q", key, frag)
		}
	}
}

// TestJobKeysMatchSprintf pins the appended VerifyUpper and ExactRatio
// keys to the fmt.Sprintf forms they replaced, byte for byte: snapshot
// entries are keyed by these strings, so a drifted key would orphan
// every restored entry. The horizons cover integral values, %g's switch
// to exponent form, NaN and +Inf besides drawn magnitudes.
func TestJobKeysMatchSprintf(t *testing.T) {
	horizons := []float64{2, 1e4, 2e5, 1e8, 123456, 1234567, 1e20, 1e21, 1e-5, 0.5,
		1.0000000000000002, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	draw := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		horizons = append(horizons, math.Exp(draw.Float64()*60-10), float64(draw.Intn(1e9)))
	}
	var strategies []strategy.Strategy
	for _, c := range [][3]int{{2, 1, 0}, {2, 3, 1}, {3, 5, 1}, {4, 11, 2}} {
		s, err := strategy.NewCyclicExponential(c[0], c[1], c[2])
		if err != nil {
			t.Fatal(err)
		}
		strategies = append(strategies, s)
	}
	for i, h := range horizons {
		m, k, f := 1+draw.Intn(6), 1+draw.Intn(64), draw.Intn(64)
		if i%7 == 0 {
			m, k, f = -m, -k, -f
		}
		vu := VerifyUpper{M: m, K: k, F: f, Horizon: h}
		if got, want := vu.Key(), fmt.Sprintf("verify|sp=%s|m=%d|k=%d|f=%d|h=%g", cyclicHash[:16], m, k, f, h); got != want {
			t.Fatalf("VerifyUpper%+v.Key() = %q, want %q", vu, got, want)
		}
		s := strategies[i%len(strategies)]
		er := ExactRatio{Strategy: s, Faults: f, Horizon: h}
		if got, want := er.Key(), fmt.Sprintf("exact|%s|f=%d|h=%g", s.Fingerprint(), f, h); got != want {
			t.Fatalf("ExactRatio{f=%d, h=%v}.Key() = %q, want %q", f, h, got, want)
		}
	}
}

// TestJobKeysPinned pins the key bytes of one fixed instance of every
// job type TestJobKeysMatchSprintf does not cover. Snapshots and the
// cache are keyed by these bytes, so a refactor of any job must leave
// each line here unchanged (the sp= fragments are the cyclic program's
// and the shoreline family's content hashes).
func TestJobKeysPinned(t *testing.T) {
	s, err := strategy.NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		job  Job
		want string
	}{
		{FRangeRatio{Strategy: s, MaxF: 2, Horizon: 1e4},
			"frange|sp|4ed4a88937ad37f081186635ae821a8d1c6dfd82f59de998fed93c20a0ec0656|m=2|k=3|f=1|a=0x1.965fea53d6e3cp+00|fmax=2|h=10000"},
		{RandomizedTrials{Base: 3.5911214766686221, X: 7.25, Samples: 2000, Seed: 42},
			"mc|b=3.591121476668622|x=7.25|n=2000|seed=42"},
		{RandomizedTrials{Base: 3.5911214766686221, X: 7.25, Samples: 2000, Seed: 42, Clamped: true},
			"mc|b=3.591121476668622|x=7.25|n=2000|seed=42|clamped"},
		{PFaultyTrials{Base: 2.5, P: 0.25, X: 12.5, Samples: 4000, Seed: 7},
			"pfaulty|b=2.5|p=0.25|x=12.5|n=4000|seed=7"},
		{PFaultyTrials{Base: 2.5, P: 0.25, X: 12.5, Samples: 4000, Seed: 7, Clamped: true},
			"pfaulty|b=2.5|p=0.25|x=12.5|n=4000|seed=7|clamped"},
		{SimulationRun{M: 3, K: 4, F: 1, Dist: 17.5},
			"simrun|sp=4ed4a88937ad37f0|m=3|k=4|f=1|d=17.5"},
		{ByzantineLineSim{K: 3, F: 1, Dist: 9.75},
			"byzline|sp=4ed4a88937ad37f0|k=3|f=1|d=9.75"},
		{ByzantineLineWorst{K: 3, F: 1, Horizon: 50, Points: 6},
			"byzworst|sp=4ed4a88937ad37f0|k=3|f=1|h=50|n=6"},
		{ShorelineWorst{K: 5, F: 1, Horizon: 100},
			"shoreworst|geo=r2|sp=4f98129d6b582bd5|k=5|f=1|h=100"},
		{ShorelineSim{K: 7, F: 2, Dist: 1000},
			"shoresim|geo=r2|sp=4f98129d6b582bd5|k=7|f=2|d=1000"},
		{EvacuationSim{K: 3, F: 1, Dist: 4.5},
			"evacsim|geo=line|obj=evac|sp=4ed4a88937ad37f0|k=3|f=1|d=4.5"},
		{EvacuationWorst{K: 5, F: 2, Horizon: 100, Points: 12},
			"evacworst|geo=line|obj=evac|sp=4ed4a88937ad37f0|k=5|f=2|h=100|n=12"},
	} {
		if got := c.job.Key(); got != c.want {
			t.Errorf("%T%+v.Key() = %q, want %q", c.job, c.job, got, c.want)
		}
	}
}
