// Package report renders the experiment harness's tables and series as
// aligned Markdown. It exists so that cmd/experiments and the
// benchmark harness print every reproduced table and figure of the paper
// in one consistent format (EXPERIMENTS.md is assembled from this output).
package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Short rows are padded with empty cells. A row
// with more cells than the table has columns is a programming error —
// silently dropping the excess once hid real data from rendered
// tables — so it panics instead of truncating.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("report: AddRow got %d cells for %d columns (row %v, columns %v)",
			len(cells), len(t.Columns), cells, t.Columns))
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Markdown renders the table as a pipe table with aligned columns,
// preceded by the title as a heading.
func (t *Table) Markdown() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, cell := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Fmt formats a float for table cells: fixed significant digits, with
// infinities and NaN spelled out.
func Fmt(v float64, digits int) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	default:
		return strconv.FormatFloat(v, 'g', digits, 64)
	}
}

// Series is a one-dimensional sweep (the library's "figure"): y as a
// function of x, rendered as a two-column table.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X, Y   []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Markdown renders the series as a two-column table.
func (s *Series) Markdown() string {
	t := NewTable(s.Name, s.XLabel, s.YLabel)
	for i := range s.X {
		t.AddRow(Fmt(s.X[i], 8), Fmt(s.Y[i], 8))
	}
	return t.Markdown()
}

// ArgMin returns the x at which y is smallest (NaN for an empty series).
func (s *Series) ArgMin() float64 {
	if len(s.X) == 0 {
		return math.NaN()
	}
	best := 0
	for i := range s.Y {
		if s.Y[i] < s.Y[best] {
			best = i
		}
	}
	return s.X[best]
}

// ArgMax returns the x at which y is largest (NaN for an empty series).
func (s *Series) ArgMax() float64 {
	if len(s.X) == 0 {
		return math.NaN()
	}
	best := 0
	for i := range s.Y {
		if s.Y[i] > s.Y[best] {
			best = i
		}
	}
	return s.X[best]
}
