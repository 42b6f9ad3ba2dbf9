package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/server"
)

func TestRunTheoremTable(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, 2, 4, "", 0, 1, "crash"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"A(m=2, k, f)", "| 1 | 0 |", "trivial", "search", "9"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithPrecision(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, 2, 3, "", 96, 2, "crash"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Certified enclosures at 96 bits") {
		t.Errorf("missing certified table:\n%s", out)
	}
	if !strings.Contains(out, "5.23306947191519859") {
		t.Errorf("missing certified B(3,1) digits:\n%s", out)
	}
}

func TestRunEtas(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, 2, 4, "1.5, 2", 0, 1, "crash"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "C(eta)") || !strings.Contains(out, "| 2 ") {
		t.Errorf("eta table malformed:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, 0, 4, "", 0, 1, "crash"); err == nil {
		t.Error("m < 1 should fail")
	}
	if err := run(context.Background(), &sb, 2, 0, "", 0, 1, "crash"); err == nil {
		t.Error("kmax < 1 should fail")
	}
	if err := run(context.Background(), &sb, 2, 2, "abc", 0, 1, "crash"); err == nil {
		t.Error("unparsable eta should fail")
	}
	if err := run(context.Background(), &sb, 2, 2, "0.5", 0, 1, "crash"); err == nil {
		t.Error("eta <= 1 should fail")
	}
}

// TestRunPrecisionParallelIdentical pins the deterministic merge of the
// pooled enclosure computation: output must not depend on workers.
func TestRunPrecisionParallelIdentical(t *testing.T) {
	var serial, parallel strings.Builder
	if err := run(context.Background(), &serial, 2, 5, "", 96, 1, "crash"); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &parallel, 2, 5, "", 96, 8, "crash"); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("workers=8 output differs from workers=1:\n%s\nvs\n%s", serial.String(), parallel.String())
	}
}

// TestRunMatchesServerRenderer pins the one-source-of-truth contract:
// the CLI table is the shared renderer's bytes, i.e. exactly what
// boundsd serves for /v1/bounds?format=markdown on the same grid.
func TestRunMatchesServerRenderer(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, 3, 5, "", 0, 1, "crash"); err != nil {
		t.Fatal(err)
	}
	sc, err := registry.Get("crash")
	if err != nil {
		t.Fatal(err)
	}
	table, err := server.ComputeBoundsTable(sc, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != table.Markdown() {
		t.Errorf("CLI bytes differ from shared renderer:\n--- CLI ---\n%s\n--- renderer ---\n%s", sb.String(), table.Markdown())
	}
}

func TestRunByzantineModel(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, 2, 4, "", 0, 1, "byzantine"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `scenario "byzantine"`) {
		t.Errorf("byzantine table missing scenario title:\n%s", out)
	}
	if err := run(context.Background(), &sb, 2, 4, "", 0, 1, "martian"); err == nil {
		t.Error("unknown model must fail")
	}
}

func TestPrintScenarios(t *testing.T) {
	var sb strings.Builder
	if err := printScenarios(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"crash", "byzantine", "probabilistic", "pfaulty-halfline", "byzantine-line", "simulatable", "Registered scenarios"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scenario listing missing %q:\n%s", want, sb.String())
		}
	}
}

// TestRunNewModelsThroughRegistry pins the no-hard-coded-switch
// contract: the two simulation-backed scenarios resolve through the
// registry and tabulate like any other model.
func TestRunNewModelsThroughRegistry(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, 1, 1, "", 0, 1, "pfaulty-halfline"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `scenario "pfaulty-halfline"`) || !strings.Contains(sb.String(), "8.1045695") {
		t.Errorf("pfaulty-halfline table missing the geometric-family optimum at p=0.5:\n%s", sb.String())
	}
	sb.Reset()
	if err := run(context.Background(), &sb, 2, 4, "", 0, 1, "byzantine-line"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `scenario "byzantine-line"`) || !strings.Contains(out, "5.23306947") {
		t.Errorf("byzantine-line table missing the transfer bound B(3,1):\n%s", out)
	}
}

// TestPrintScenariosPinned pins the bytes of `bounds -scenarios`: the
// capability columns are derived from each registered scenario, and
// however that derivation is organised the listing must not move.
func TestPrintScenariosPinned(t *testing.T) {
	var sb strings.Builder
	if err := printScenarios(&sb); err != nil {
		t.Fatal(err)
	}
	const want = "f83480b2929e596db614a8e173f7b03c1394822fc0436dc7e569b19bc306a21d"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))); got != want {
		t.Errorf("listing sha256 = %s, want %s:\n%s", got, want, sb.String())
	}
}
