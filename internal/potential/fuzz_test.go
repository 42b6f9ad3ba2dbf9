package potential

import (
	"math"
	"testing"

	"repro/internal/cover"
)

// checkCertificate fails the fuzz run unless a certificate answered
// without error has a verdict, a Sub chain no deeper than its robot
// count, and, by Lemma 5, no post-warmup step that grew f(P) by less
// than delta.
func checkCertificate(t *testing.T, label string, cert Certificate, err error) {
	t.Helper()
	if err != nil {
		return
	}
	depth := 0
	for c := &cert; c != nil; c = c.Sub {
		if c.Verdict < VerdictContradiction || c.Verdict > VerdictBounded {
			t.Fatalf("%s: certificate without a valid verdict: %+v", label, *c)
		}
		if c.Steps > 0 && c.Delta > 0 && !math.IsInf(c.Delta, 1) && c.MinStepRatio < c.Delta*(1-1e-9) {
			t.Fatalf("%s: min step ratio %.15g below delta %.15g (Lemma 5): %+v", label, c.MinStepRatio, c.Delta, *c)
		}
		if c.Sub != nil {
			depth++
		}
	}
	if depth > cert.K {
		t.Fatalf("%s: Sub chain %d deep for %d robots", label, depth, cert.K)
	}
}

// FuzzRefute feeds arbitrary turn sequences, at most 6 robots of 40
// turns each, with an arbitrary fold, ratio, range and Case constant to
// both refuters, and their exact assignments to RunSymmetric and RunORC.
// Nothing may panic, and every certificate answered without error must
// pass checkCertificate. Byte 0 picks the robot count and every later
// byte one turn of robot i mod k, 2^((b-64)/8).
//
// CI runs this for a short -fuzztime as a smoke gate; `go test -fuzz
// FuzzRefute ./internal/potential` explores further.
func FuzzRefute(f *testing.F) {
	f.Add([]byte{0, 64, 72, 80, 88, 96, 104, 112, 120, 128}, uint8(1), 9.05, 1000.0, 1e9)
	f.Add([]byte{1, 64, 64, 72, 72, 80, 80, 88, 88, 96, 96, 104, 104}, uint8(3), 8.8, 100.0, 1.5)
	f.Add([]byte{2, 60, 70, 66, 76, 84, 90, 96, 100, 110, 114, 118, 126, 130, 136}, uint8(4), 12.0, 250.0, 20.0)
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 255, 254, 253}, uint8(0), math.Inf(1), math.NaN(), -1.0)
	f.Fuzz(func(t *testing.T, data []byte, fold uint8, lambda, upTo, caseC float64) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%6
		turns := make([][]float64, k)
		for i, b := range data[1:] {
			if r := i % k; len(turns[r]) < 40 {
				turns[r] = append(turns[r], math.Exp2(float64(int(b)-64)/8))
			}
		}
		s := int(fold % 16)
		cert, err := RefuteSymmetricStrategy(turns, s, lambda, upTo)
		checkCertificate(t, "RefuteSymmetricStrategy", cert, err)
		cert, err = RefuteORCStrategy(turns, s, lambda, upTo, caseC)
		checkCertificate(t, "RefuteORCStrategy", cert, err)
		// refute hands its exact assignment, when there is one, to keep;
		// the Run functions then replay it directly.
		var assigned []cover.Assigned
		keep := func(a []cover.Assigned) (Certificate, error) {
			assigned = a
			return Certificate{}, nil
		}
		if _, err := refute(turns, symmetric(k, s), lambda, upTo, cover.SymmetricCovIntervals, keep); err == nil && assigned != nil {
			cert, err = RunSymmetric(assigned, k, s, lambda)
			checkCertificate(t, "RunSymmetric", cert, err)
		}
		assigned = nil
		if _, err := refute(turns, orc(k, s), lambda, upTo, cover.ORCCovIntervals, keep); err == nil && assigned != nil {
			cert, _, err = RunORC(assigned, k, s, lambda, caseC)
			checkCertificate(t, "RunORC", cert, err)
		}
	})
}
