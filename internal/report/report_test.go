package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Title", "name", "value").AlignNumeric()
	tbl.AddStringRow("alpha", "1.50")
	tbl.AddStringRow("b", "100")
	s := tbl.String()
	if !strings.HasPrefix(s, "Title\n") {
		t.Errorf("missing title: %q", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want title+header+rule+2 rows, got %q", len(lines), s)
	}
	// Header then rule then rows.
	if !strings.Contains(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Errorf("header line: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("rule line: %q", lines[2])
	}
	// Right-aligned numeric column: the value appears at line end.
	if !strings.HasSuffix(lines[3], "1.50") {
		t.Errorf("numeric column should right-align: %q", lines[3])
	}
}

func TestTableRowsCount(t *testing.T) {
	tbl := NewTable("", "a")
	if tbl.Rows() != 0 {
		t.Error("fresh table has rows")
	}
	tbl.AddStringRow("x")
	tbl.AddStringRow("y")
	if tbl.Rows() != 2 {
		t.Errorf("Rows = %d", tbl.Rows())
	}
}

func TestTableNoTitle(t *testing.T) {
	s := NewTable("", "h").AddStringRow("v").String()
	if strings.HasPrefix(s, "\n") {
		t.Errorf("empty title should not emit a blank line: %q", s)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("ignored", "a", "b")
	tbl.AddStringRow("1", "2")
	tbl.AddStringRow(`has,comma`, `has"quote`)
	csv := tbl.CSV()
	want := "a,b\n1,2\n\"has,comma\",\"has\"\"quote\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestPctPP(t *testing.T) {
	if got := Pct(12.345); got != "12.35%" {
		t.Errorf("Pct = %q", got)
	}
	if got := PP(0.5); got != "0.50pp" {
		t.Errorf("PP = %q", got)
	}
}

func TestUS(t *testing.T) {
	cases := map[float64]string{
		500:   "500.0µs",
		5e3:   "5.00ms",
		5e6:   "5.00s",
		9e7:   "1.5min",
		7.2e9: "2.00h",
	}
	for in, want := range cases {
		if got := US(in); got != want {
			t.Errorf("US(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestCount(t *testing.T) {
	cases := map[int]string{
		0:       "0",
		999:     "999",
		1000:    "1,000",
		1234567: "1,234,567",
		-1234:   "-1,234",
	}
	for in, want := range cases {
		if got := Count(in); got != want {
			t.Errorf("Count(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); got != "#####" {
		t.Errorf("Bar = %q", got)
	}
	if got := Bar(20, 10, 10); got != "##########" {
		t.Errorf("Bar should clamp: %q", got)
	}
	if Bar(0, 10, 10) != "" || Bar(5, 0, 10) != "" {
		t.Error("degenerate bars should be empty")
	}
}

func TestSection(t *testing.T) {
	if got := Section("X"); !strings.Contains(got, "== X ==") {
		t.Errorf("Section = %q", got)
	}
}
