package seqpoint_test

// Paper oracle. The repository's purpose is to reproduce the paper's
// evaluation, so tier-1 asserts it: one suite at the default seed must
// satisfy every claim cmd/papercheck checks, and the rendered tables
// and figures plus every figure-backing CSV, all from one
// Suite.RunAll, must match a committed golden byte for byte. Any
// change to the pricing path behind Figs 3-16 shows up here first.
//
// Regenerate the golden after an intentional model change with:
//
//	go test -run TestGoldenPaperSuite -update-golden .

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
)

const goldenPaperPath = "testdata/golden_paper_suite.txt"

func TestGoldenPaperSuite(t *testing.T) {
	s := experiments.NewSuite(experiments.DefaultSeed)
	s.Lab = experiments.NewLabWith(engine.New())

	for _, c := range experiments.Claims() {
		ok, detail, err := c.Eval(s)
		switch {
		case err != nil:
			t.Errorf("claim %s (%s): %v", c.ID, c.Text, err)
		case !ok:
			t.Errorf("claim %s fails: %s (%s)", c.ID, c.Text, detail)
		}
	}

	var got bytes.Buffer
	bundle, err := s.RunAll(&got)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(bundle))
	for name := range bundle {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got.WriteString("\n==> " + name + " <==\n")
		got.WriteString(bundle[name])
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPaperPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPaperPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes, %d CSVs)", goldenPaperPath, got.Len(), len(names))
		return
	}

	want, err := os.ReadFile(goldenPaperPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		line := 0
		for line < len(gotLines) && line < len(wantLines) && gotLines[line] == wantLines[line] {
			line++
		}
		var g, w string
		if line < len(gotLines) {
			g = gotLines[line]
		}
		if line < len(wantLines) {
			w = wantLines[line]
		}
		t.Errorf("paper suite drifted from %s at line %d — if the cost model changed intentionally, regenerate with -update-golden.\ngot:  %q\nwant: %q",
			goldenPaperPath, line+1, g, w)
	}
}
