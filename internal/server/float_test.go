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
