package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// checkFloatMarshal compares Float's MarshalJSON with
// json.Marshal(float64) on the value with the given bits: equal bytes,
// or null where encoding/json rejects the value.
func checkFloatMarshal(t *testing.T, bits uint64) {
	t.Helper()
	v := math.Float64frombits(bits)
	got, err := Float(v).MarshalJSON()
	if err != nil {
		t.Fatalf("%v (%#016x): %v", v, bits, err)
	}
	want := []byte("null")
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		if want, err = json.Marshal(v); err != nil {
			t.Fatalf("json.Marshal(%v): %v", v, err)
		}
	}
	if string(got) != string(want) {
		t.Fatalf("%v (%#016x): Float gives %s, encoding/json %s", v, bits, got, want)
	}
}

// floatMarshalEdges are the values at encoding/json's format switches
// and the ends of the float64 range.
var floatMarshalEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.999999999999999e-7,
	1e20, 1e21, -1e21, 999999999999999900000, 1e-9, 1.5e-10, 1e100, 1e-100,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022,
	math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestFloatMarshalMatchesEncodingJSON checks the edge values and
// 100,000 random bit patterns.
func TestFloatMarshalMatchesEncodingJSON(t *testing.T) {
	for _, v := range floatMarshalEdges {
		checkFloatMarshal(t, math.Float64bits(v))
	}
	draw := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		checkFloatMarshal(t, draw.Uint64())
	}
}

func FuzzFloatMarshalMatchesEncodingJSON(f *testing.F) {
	for _, v := range floatMarshalEdges {
		f.Add(math.Float64bits(v))
	}
	f.Add(uint64(0x3ff0000000000001))
	f.Add(uint64(0xc01921fb54442d18))
	f.Fuzz(checkFloatMarshal)
}

// checkSweepCellJSON compares SweepCell.appendJSON, appended after a
// prefix, with json.Marshal of the same cell: equal bytes.
func checkSweepCellJSON(t *testing.T, c SweepCell) {
	t.Helper()
	want, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", c, err)
	}
	if got := c.appendJSON([]byte("x")); string(got) != "x"+string(want) {
		t.Fatalf("%+v:\nappendJSON   %s\nencoding/json x%s", c, got, want)
	}
}

// sweepCellStringEdges are regime and error strings across
// encoding/json's escaping rules: plain ASCII, the HTML-escaped
// characters, quote and backslash, control bytes, DEL, non-ASCII,
// U+2028/U+2029 and invalid UTF-8.
var sweepCellStringEdges = []string{
	"", "search", "trivial", "unsolvable",
	"engine: cell (2,3,1): adversary: target uncovered",
	`<>&"\`, "a<b", "a>b", "R&D", `say "hi"`, `C:\path`,
	"tab\there", "line\nbreak", "\r\x00\x01\x1f", "del\x7f",
	"héllo wörld", "λ = 2√2", "\u2028\u2029", "bad \xff\xfe utf-8", "\xed\xa0\x80",
}

func FuzzSweepCellMatchesEncodingJSON(f *testing.F) {
	for i, v := range floatMarshalEdges {
		bits := math.Float64bits(v)
		s := sweepCellStringEdges[i%len(sweepCellStringEdges)]
		f.Add(2, 3, 1, 4, s, bits, i%2 == 0, bits, bits, i%3, bits, s)
		f.Add(-i, i, 0, 0, "search", bits, true, uint64(0), bits, 0, uint64(0), "")
	}
	for i, s := range sweepCellStringEdges {
		f.Add(3, 5, 1, 6, s, math.Float64bits(1e-7), false, math.Float64bits(1e21), math.Float64bits(-0.0), -i, math.Float64bits(math.Copysign(0, -1)), s)
	}
	f.Fuzz(func(t *testing.T, m, k, fa, q int, regime string, closed uint64, evaluated bool, measured, relGap uint64, worstRay int, worstX uint64, errMsg string) {
		checkSweepCellJSON(t, SweepCell{
			M: m, K: k, F: fa, Q: q, Regime: regime,
			Closed: Float(math.Float64frombits(closed)), Evaluated: evaluated,
			Measured: Float(math.Float64frombits(measured)), RelGap: Float(math.Float64frombits(relGap)),
			WorstRay: worstRay, WorstX: Float(math.Float64frombits(worstX)), Error: errMsg,
		})
	})
}
