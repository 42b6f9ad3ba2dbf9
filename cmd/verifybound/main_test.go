package main

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/strategy"
)

func TestParseStrategy(t *testing.T) {
	input := `# comment-only line
1 2 4 8   # doubling
1.5 3 6
`
	turns, err := parseStrategy(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(turns) != 2 {
		t.Fatalf("parsed %d robots, want 2", len(turns))
	}
	if len(turns[0]) != 4 || turns[0][2] != 4 {
		t.Errorf("robot 0 = %v", turns[0])
	}
	if len(turns[1]) != 3 || turns[1][0] != 1.5 {
		t.Errorf("robot 1 = %v", turns[1])
	}
}

func TestParseStrategyErrors(t *testing.T) {
	if _, err := parseStrategy(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := parseStrategy(strings.NewReader("1 2 three")); err == nil {
		t.Error("unparsable token should fail")
	}
}

func TestRunValidCover(t *testing.T) {
	// Doubling at lambda above 9 is a valid single cover.
	input := "0.125 0.25 0.5 1 2 4 8 16 32 64 128 256\n"
	var sb strings.Builder
	if err := run(context.Background(), &sb, strings.NewReader(input), "crash", 1, 9.2, 100, 1e9); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "verdict: bounded") {
		t.Errorf("expected bounded verdict:\n%s", out)
	}
}

func TestRunRefutesBelowBound(t *testing.T) {
	// Single-robot 1-fold ORC doubling covers exactly when mu >= 2
	// (lambda >= 5); at lambda = 4.5 it must gap.
	input := "0.125 0.25 0.5 1 2 4 8 16 32 64 128 256\n"
	var sb strings.Builder
	if err := run(context.Background(), &sb, strings.NewReader(input), "crash", 1, 4.5, 100, 1e9); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "verdict: contradiction") {
		t.Errorf("expected a contradiction verdict:\n%s", out)
	}
}

func TestRunPrintsEqTenBound(t *testing.T) {
	input := "1 2 4\n2 4 8\n"
	var sb strings.Builder
	if err := run(context.Background(), &sb, strings.NewReader(input), "crash", 3, 12, 5, 1e9); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Eq. (10) bound") {
		t.Errorf("expected the Eq. (10) banner:\n%s", sb.String())
	}
}

func TestRunModelResolution(t *testing.T) {
	var sb strings.Builder
	input := "1 2 4 8 16 32 64 128\n"
	// Byzantine coverings are crash coverings (transfer principle).
	if err := run(context.Background(), &sb, strings.NewReader(input), "byzantine", 1, 9.2, 100, 1e9); err != nil {
		t.Errorf("byzantine model should be accepted: %v", err)
	}
	if err := run(context.Background(), &sb, strings.NewReader(input), "probabilistic", 1, 9.2, 100, 1e9); err == nil {
		t.Error("probabilistic is not an ORC model and must be rejected")
	}
	if err := run(context.Background(), &sb, strings.NewReader(input), "martian", 1, 9.2, 100, 1e9); err == nil {
		t.Error("unknown scenario must be rejected")
	}
}

func TestScriptTurnsMatchesCyclicStrategy(t *testing.T) {
	// The scripted path must feed the pipeline the exact turns the
	// compiled program generates: materialise the cyclic script through
	// scriptTurns and compare against the strategy package's own rounds.
	dir := t.TempDir()
	path := dir + "/cyclic.prog"
	if err := os.WriteFile(path, []byte(strategy.CyclicScript), 0o644); err != nil {
		t.Fatal(err)
	}
	const m, k, f = 2, 3, 1
	const horizon = 500.0
	r, err := scriptTurns(path, m, k, f, horizon)
	if err != nil {
		t.Fatal(err)
	}
	turns, err := parseStrategy(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(turns) != k {
		t.Fatalf("parsed %d robots, want %d", len(turns), k)
	}
	want, err := strategy.NewCyclicExponential(m, k, f)
	if err != nil {
		t.Fatal(err)
	}
	for robot := 0; robot < k; robot++ {
		rounds, err := want.AppendRounds(nil, robot, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if len(turns[robot]) != len(rounds) {
			t.Fatalf("robot %d: %d turns, want %d", robot, len(turns[robot]), len(rounds))
		}
		for i, rd := range rounds {
			if turns[robot][i] != rd.Turn {
				t.Fatalf("robot %d round %d: turn %g, want %g (bit-exact)", robot, i, turns[robot][i], rd.Turn)
			}
		}
	}
}

func TestScriptTurnsRejectsBadScript(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/bad.prog"
	if err := os.WriteFile(path, []byte("emit(1)"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scriptTurns(path, 2, 1, 0, 100); err == nil {
		t.Fatal("malformed script should fail to compile")
	}
}
