package main

import (
	"strings"
	"testing"

	"repro/internal/potential"
)

// FuzzParseStrategy feeds arbitrary bytes to the -strategy file parser
// and every strategy it accepts, cut to at most 8 robots of 32 turns,
// to the Eq. (10) refutation pipeline at a small multiplicity, ratio
// and range. Neither may panic, and the pipeline must answer a
// certificate with a verdict or an error.
func FuzzParseStrategy(f *testing.F) {
	for _, seed := range []string{
		"1 2 4 8 16 32 64 128\n",
		"# comment-only line\n1 2 4 8   # doubling\n1.5 3 6\n",
		"1 3 9 27 81\n2 6 18 54 162\n",
		"1 1 1 1\n",
		"0 -1 NaN +Inf\n",
		"1e308 1e-308 5e-324\n",
		"\n\n",
		"1 2 x\n",
	} {
		f.Add([]byte(seed), uint8(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, qb uint8) {
		turns, err := parseStrategy(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if len(turns) == 0 {
			t.Fatal("parseStrategy accepted an input with no robots")
		}
		turns = turns[:min(len(turns), 8)]
		for r := range turns {
			turns[r] = turns[r][:min(len(turns[r]), 32)]
		}
		q := 1 + int(qb%6)
		cert, err := potential.RefuteORCStrategy(turns, q, 5, 50, 1e9)
		if err == nil && cert.Verdict == 0 {
			t.Fatalf("q=%d, turns %v: certificate without a verdict: %+v", q, turns, cert)
		}
	})
}
