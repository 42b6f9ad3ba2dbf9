package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("Demo", "k", "f", "lambda")
	tb.AddRow("1", "0", "9")
	tb.AddRow("3", "1", "5.2333")
	md := tb.Markdown()
	if !strings.Contains(md, "### Demo") {
		t.Error("title missing")
	}
	if !strings.Contains(md, "| k | f | lambda |") {
		t.Errorf("header row malformed:\n%s", md)
	}
	if !strings.Contains(md, "5.2333") {
		t.Error("row content missing")
	}
	lines := strings.Split(strings.TrimSpace(md), "\n")
	// Title, blank, header, separator, two rows.
	if len(lines) != 6 {
		t.Errorf("unexpected line count %d:\n%s", len(lines), md)
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")
	if len(tb.Rows[0]) != 2 || tb.Rows[0][1] != "" {
		t.Error("short row should be padded")
	}
	if strings.Contains(tb.Markdown(), "###") {
		t.Error("empty title should not emit a heading")
	}
}

// TestTableOverlongRowPanics is the regression test for the silent
// truncation bug: AddRow used to drop cells beyond the column count
// without a trace, so a caller with a mismatched column list lost data
// in every rendered table. Over-long rows are now a panic. (An audit
// of the cmd/experiments and bench-harness call sites found all rows
// at or under their column counts, so nothing was being truncated at
// the time of the fix.)
func TestTableOverlongRowPanics(t *testing.T) {
	tb := NewTable("", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("over-long row must panic, not silently truncate")
		}
	}()
	tb.AddRow("x", "y", "overflow")
}

func TestFmt(t *testing.T) {
	tests := []struct {
		v      float64
		digits int
		want   string
	}{
		{9, 6, "9"},
		{5.23306947, 6, "5.23307"},
		{math.Inf(1), 4, "inf"},
		{math.Inf(-1), 4, "-inf"},
		{math.NaN(), 4, "nan"},
	}
	for _, tt := range tests {
		if got := Fmt(tt.v, tt.digits); got != tt.want {
			t.Errorf("Fmt(%g, %d) = %q, want %q", tt.v, tt.digits, got, tt.want)
		}
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "alpha sweep"
	s.XLabel = "alpha"
	s.YLabel = "ratio"
	s.Add(1.5, 10)
	s.Add(2.0, 9)
	s.Add(2.5, 9.5)
	if got := s.ArgMin(); got != 2.0 {
		t.Errorf("ArgMin = %g, want 2", got)
	}
	if got := s.ArgMax(); got != 1.5 {
		t.Errorf("ArgMax = %g, want 1.5", got)
	}
	md := s.Markdown()
	if !strings.Contains(md, "alpha sweep") || !strings.Contains(md, "| 2 ") {
		t.Errorf("series markdown malformed:\n%s", md)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if !math.IsNaN(s.ArgMin()) || !math.IsNaN(s.ArgMax()) {
		t.Error("empty series extrema should be NaN")
	}
}
