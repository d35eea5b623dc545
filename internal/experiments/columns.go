package experiments

import (
	"fmt"
	"strconv"

	"seqpoint/internal/report"
)

// column is one column of a result table, declared once for both
// renderings: text heads the aligned table and show formats its cell,
// csv heads the CSV and export formats its cell. An empty text header
// makes the column CSV-only.
type column[R any] struct {
	text, csv    string
	show, export func(R) string
}

// floatCol declares a float column: show formats the text cell, and the
// CSV cell carries six decimals.
func floatCol[R any](text, csv string, show func(float64) string, v func(R) float64) column[R] {
	return column[R]{text, csv,
		func(r R) string { return show(v(r)) },
		func(r R) string { return fmt.Sprintf("%.6f", v(r)) }}
}

// intCol declares an integer column: show formats the text cell, and
// the CSV cell is the decimal value.
func intCol[R any](text, csv string, show func(int) string, v func(R) int) column[R] {
	return column[R]{text, csv,
		func(r R) string { return show(v(r)) },
		func(r R) string { return strconv.Itoa(v(r)) }}
}

// textCol declares a string column, printed as is in both renderings.
func textCol[R any](text, csv string, v func(R) string) column[R] {
	return column[R]{text, csv, v, v}
}

// fixed returns a printf formatter for one float cell.
func fixed(format string) func(float64) string {
	return func(v float64) string { return fmt.Sprintf(format, v) }
}

// textTable renders rows as an aligned text table under title, leaving
// out the CSV-only columns.
func textTable[R any](title string, cols []column[R], rows []R) string {
	var shown []column[R]
	var headers []string
	for _, c := range cols {
		if c.text != "" {
			shown = append(shown, c)
			headers = append(headers, c.text)
		}
	}
	t := report.NewTable(title, headers...).AlignNumeric()
	return fill(t, shown, rows, func(c column[R], r R) string { return c.show(r) }).String()
}

// csvTable renders rows as CSV over every column.
func csvTable[R any](cols []column[R], rows []R) string {
	headers := make([]string, len(cols))
	for i, c := range cols {
		headers[i] = c.csv
	}
	return fill(report.NewTable("", headers...), cols, rows, func(c column[R], r R) string { return c.export(r) }).CSV()
}

// fill adds one row to t per element of rows, formatting column c's
// cell of row r as cell(c, r).
func fill[R any](t *report.Table, cols []column[R], rows []R, cell func(c column[R], r R) string) *report.Table {
	for _, r := range rows {
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i] = cell(c, r)
		}
		t.AddStringRow(cells...)
	}
	return t
}
