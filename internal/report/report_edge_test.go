package report

import (
	"strings"
	"testing"
)

// TestAlignBounds: out-of-range column indexes must be ignored, not
// panic, and Align must affect exactly the requested column.
func TestAlignBounds(t *testing.T) {
	tbl := NewTable("", "left", "right").Align(-1, AlignRight).Align(5, AlignRight).Align(1, AlignRight)
	tbl.AddStringRow("x", "1")
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	row := lines[len(lines)-1]
	if !strings.HasSuffix(row, " 1") {
		t.Errorf("column 1 not right-aligned: %q", row)
	}
	if !strings.HasPrefix(row, "x") {
		t.Errorf("column 0 must stay left-aligned: %q", row)
	}
}

// TestRowsShorterAndLongerThanHeader: the renderer pads missing cells
// and drops extras instead of panicking.
func TestRowsShorterAndLongerThanHeader(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.AddStringRow("only")
	tbl.AddStringRow("1", "2", "3", "surplus")
	out := tbl.String()
	if strings.Contains(out, "surplus") {
		t.Errorf("extra cells must be dropped: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header+rule+2 rows", len(lines))
	}
}

// TestLastLeftColumnHasNoTrailingPadding: left-aligned final columns
// must not pad the line end (diff noise in goldens otherwise).
func TestLastLeftColumnHasNoTrailingPadding(t *testing.T) {
	tbl := NewTable("", "name", "comment")
	tbl.AddStringRow("a", "short")
	tbl.AddStringRow("b", "a much longer comment")
	for i, line := range strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n") {
		if line != strings.TrimRight(line, " ") {
			t.Errorf("line %d has trailing spaces: %q", i, line)
		}
	}
}

// TestCSVNewlineQuoting: cells with embedded newlines are quoted per
// RFC 4180.
func TestCSVNewlineQuoting(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddStringRow("line1\nline2")
	if got, want := tbl.CSV(), "a\n\"line1\nline2\"\n"; got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

// TestUSBoundaries pins the unit switch points of the duration
// formatter.
func TestUSBoundaries(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0.0µs"},
		{999.9, "999.9µs"},
		{1000, "1.00ms"},      // first ms value
		{999999, "1000.00ms"}, // just under a second
		{1e6, "1.00s"},
		{59.99e6, "59.99s"},
		{6e7, "1.0min"},
		{3599e6, "60.0min"}, // just under an hour
		{3.6e9, "1.00h"},
	}
	for _, tc := range cases {
		if got := US(tc.in); got != tc.want {
			t.Errorf("US(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestCountEdges pins small negatives and exact group boundaries.
func TestCountEdges(t *testing.T) {
	cases := map[int]string{
		-1:       "-1",
		-999:     "-999",
		-1000:    "-1,000",
		100000:   "100,000",
		1000000:  "1,000,000",
		-1000000: "-1,000,000",
	}
	for in, want := range cases {
		if got := Count(in); got != want {
			t.Errorf("Count(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestBarDegenerateWidths: non-positive width or max never emits.
func TestBarDegenerateWidths(t *testing.T) {
	if Bar(5, 10, 0) != "" || Bar(5, 10, -3) != "" || Bar(5, -1, 10) != "" || Bar(-5, 10, 10) != "" {
		t.Error("degenerate Bar inputs must render empty")
	}
	// Rounding truncates: 1/3 of width 10 is 3 full cells.
	if got := Bar(1, 3, 10); got != "###" {
		t.Errorf("Bar(1,3,10) = %q, want ###", got)
	}
}
