// Package report renders experiment results as aligned text tables and
// CSV, the two formats cmd/experiments emits: tables for terminal
// reading and EXPERIMENTS.md, CSV for external plotting of the figures.
package report

import (
	"fmt"
	"strings"
)

// Align controls column alignment in a text table.
type Align int

const (
	// AlignLeft pads on the right.
	AlignLeft Align = iota
	// AlignRight pads on the left (numbers).
	AlignRight
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	title   string
	headers []string
	aligns  []Align
	rows    [][]string
}

// NewTable starts a table with the given column headers. Columns default
// to left alignment; use Align to change specific columns.
func NewTable(title string, headers ...string) *Table {
	t := &Table{title: title, headers: headers, aligns: make([]Align, len(headers))}
	return t
}

// Align sets the alignment of column i (0-based) and returns the table
// for chaining.
func (t *Table) Align(i int, a Align) *Table {
	if i >= 0 && i < len(t.aligns) {
		t.aligns[i] = a
	}
	return t
}

// AlignNumeric right-aligns every column except the first, the common
// layout for a label column followed by measurements.
func (t *Table) AlignNumeric() *Table {
	for i := 1; i < len(t.aligns); i++ {
		t.aligns[i] = AlignRight
	}
	return t
}

// AddStringRow appends a pre-formatted row.
func (t *Table) AddStringRow(cells ...string) *Table {
	t.rows = append(t.rows, cells)
	return t
}

// Rows returns the number of data rows added so far.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with a title line, a header row, a rule, and
// aligned data rows.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}

	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i := range t.headers {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(c)
			if t.aligns[i] == AlignRight {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(c)
			} else {
				b.WriteString(c)
				if i != len(t.headers)-1 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	total := 0
	for i, w := range widths {
		if i > 0 {
			total += 2
		}
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180 CSV (header row first, no title).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.headers)
	for _, row := range t.rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteString(",")
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
		} else {
			b.WriteString(c)
		}
	}
	b.WriteString("\n")
}
