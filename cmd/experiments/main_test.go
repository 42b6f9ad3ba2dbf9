package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
)

func TestRunSingleExperiments(t *testing.T) {
	// The cheap experiments run quickly enough to test individually; the
	// expensive ones (E1, E4 with large horizons) are covered by the
	// benchmark harness and by running the binary.
	for _, id := range []int{2, 9, 10, 11} {
		var sb strings.Builder
		if err := run(context.Background(), &sb, nil, id, 1); err != nil {
			t.Fatalf("experiment %d: %v", id, err)
		}
		if !strings.Contains(sb.String(), "## E") {
			t.Errorf("experiment %d produced no heading:\n%s", id, sb.String())
		}
	}
}

// TestRunParallelOutputIdentical pins the engine's determinism contract
// at the CLI layer: the engine-backed experiments must print the same
// bytes for every -workers setting.
func TestRunParallelOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial sweeps are too slow for -short")
	}
	for _, id := range []int{1, 7, 8} {
		var serial, parallel strings.Builder
		if err := run(context.Background(), &serial, nil, id, 1); err != nil {
			t.Fatalf("experiment %d serial: %v", id, err)
		}
		if err := run(context.Background(), &parallel, nil, id, 8); err != nil {
			t.Fatalf("experiment %d parallel: %v", id, err)
		}
		if serial.String() != parallel.String() {
			t.Errorf("experiment %d: workers=8 output differs from workers=1:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial.String(), parallel.String())
		}
	}
}

func TestRunE10Content(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, nil, 10, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"trivial", "unsolvable", "search"} {
		if !strings.Contains(out, want) {
			t.Errorf("E10 missing %q:\n%s", want, out)
		}
	}
}

func TestRunE2Certified(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, nil, 2, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "5.23306947191519859933788170473") {
		t.Errorf("E2 missing certified digits:\n%s", sb.String())
	}
}

func TestRunUnknownIdIsNoop(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, nil, 99, 1); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("unknown id should produce no output, got:\n%s", sb.String())
	}
}

// TestE01MatchesServerRenderer pins the one-source-of-truth contract:
// experiment E1's table is exactly what boundsd serves for
// /v1/sweep?m=2&kmax=6&format=markdown at the same horizon.
func TestE01MatchesServerRenderer(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial sweep is too slow for -short")
	}
	eng := engine.New(0)
	var sb strings.Builder
	if err := e01(context.Background(), &sb, &exec{eng: eng}); err != nil {
		t.Fatal(err)
	}
	// Same engine: the sweep results come straight from the cache.
	table, err := server.ComputeSweep(context.Background(), eng, engine.Grid(2, 6), 2e5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != table.MarkdownLine() {
		t.Errorf("E1 bytes differ from shared renderer:\n--- E1 ---\n%s\n--- renderer ---\n%s", sb.String(), table.MarkdownLine())
	}
}
