package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateTranscript = flag.Bool("update-transcript", false, "rewrite testdata/transcript.txt from this build")

// asTrainsim makes the test binary act as trainsim when set in its
// environment, so the transcript runs the real command line without a
// separate build.
const asTrainsim = "SEQPOINT_TRAINSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asTrainsim) == "1" {
		os.Exit(mainExit())
	}
	os.Exit(m.Run())
}

// transcriptRuns are trainsim invocations in the order they run: the
// README's drives, then edge cases that must fail, then a tenanted
// disaggregated fleet, which pins its per-tenant table. The -trace-in
// runs replay files that earlier runs write into the shared directory.
var transcriptRuns = [][]string{
	{"-model", "gnmt", "-config", "3", "-parallelism", "4"},
	{"-model", "gnmt", "-serve", "-rate", "600", "-replicas", "3", "-routing", "po2", "-queue-cap", "64"},
	{"-model", "gnmt", "-plan", "-rate", "700", "-slo-p99-us", "400000", "-slo-min-rps", "400", "-plan-max-replicas", "8"},
	{"-model", "gnmt", "-serve", "-rate", "120", "-policy", "length", "-requests", "512"},
	{"-model", "gnmt", "-serve", "-rate", "400", "-replicas", "4", "-autoscale", "-queue-cap", "256"},
	{"-model", "gnmt", "-serve", "-rate", "400", "-replicas", "3", "-kv-capacity-gb", "0.08", "-decode-steps", "32", "-kv-preempt", "evict", "-routing", "kv"},
	{"-model", "gnmt", "-serve", "-rate", "600", "-batch", "8", "-replicas", "3", "-kv-capacity-gb", "0.05", "-decode-steps", "16", "-disagg", "1:2"},
	{"-model", "gnmt", "-serve", "-rate", "120", "-tenants", "chat=3,bulk=1", "-pattern", "diurnal", "-policy", "wfq", "-trace-out", "arrivals.trace"},
	{"-model", "gnmt", "-serve", "-trace-in", "arrivals.trace", "-policy", "fixed"},
	{"-model", "gnmt", "-serve", "-trace-in", "arrivals.trace", "-rate", "50", "-replicas", "2"},
	{"-model", "gnmt", "-serve", "-rate", "2000", "-batch", "8", "-requests", "70000", "-trace-out", "big.trace"},
	{"-model", "gnmt", "-serve", "-trace-in", "big.trace", "-batch", "8"},
	{"-model", "gnmt", "-serve", "-rate", "200", "-batch", "5000", "-requests", "256"},
	{"-model", "gnmt", "-serve", "-rate", "200", "-tenants", "chat=200", "-pattern", "diurnal"},
	{"-model", "gnmt", "-plan", "-rate", "300", "-batch", "16", "-requests", "48", "-slo-min-rps", "100", "-plan-max-replicas", "0"},
	{"-model", "gnmt", "-plan", "-rate", "300", "-batch", "16", "-requests", "0", "-slo-min-rps", "100"},
	{"-model", "gnmt", "-serve", "-trace-in", "arrivals.trace", "-requests", "0"},
	{"-model", "gnmt", "-serve", "-rate", "200", "-replicas", "0"},
	{"-model", "gnmt", "-serve", "-rate", "200", "-seed", "0"},
	{"-model", "gnmt", "-serve", "-rate", "200", "-batch", "0"},
	{"-model", "gnmt", "-serve", "-rate", "200", "-requests", "0"},
	{"-model", "gnmt", "-serve", "-rate", "200", "-replicas", "0", "-routing", "rr"},
	{"-model", "gnmt", "-serve", "-rate", "200", "-replicas", "0", "-autoscale"},
	{"-model", "gnmt", "-serve", "-rate", "200", "-policy", ""},
	{"-model", "gnmt", "-serve", "-rate", "200", "-routing", ""},
	{"-model", "gnmt", "-serve", "-trace-in", "arrivals.trace", "-rate", "0"},
	{"-model", "gnmt", "-plan", "-rate", "300"},
	{"-model", "gnmt", "-serve", "-config", "9", "-rate", "200"},
	{"-model", "cnn", "-serve", "-rate", "200"},
	{"-model", "gnmt", "-serve", "-rate", "200", "-decode-steps", "8"},
	{"-model", "gnmt", "-serve", "-rate", "600", "-batch", "8", "-replicas", "3", "-kv-capacity-gb", "0.05", "-decode-steps", "16", "-disagg", "1:2", "-tenants", "chat=2,bulk=1"},
}

// transcriptHeader labels one run in the transcript, quoting empty
// arguments so the line reads as the shell command it stands for.
func transcriptHeader(args []string) string {
	quoted := make([]string, len(args))
	for i, a := range args {
		if a == "" {
			a = `""`
		}
		quoted[i] = a
	}
	return "$ trainsim " + strings.Join(quoted, " ") + "\n"
}

// TestTranscript runs every transcriptRuns line through trainsim's real
// entry point, in one directory, and compares each run's stdout and exit
// code with testdata/transcript.txt byte for byte. stderr is not
// pinned: it carries error wording and usage text. Regenerate after an
// intentional output change with:
//
//	go test ./cmd/trainsim -run TestTranscript -update-transcript
func TestTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("the transcript's serving and planning runs are skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	blocks := make([]string, len(transcriptRuns))
	for i, args := range transcriptRuns {
		cmd := exec.Command(exe, args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), asTrainsim+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) {
				t.Fatalf("run %d (%s): %v", i+1, strings.Join(args, " "), err)
			}
			code = exitErr.ExitCode()
		}
		blocks[i] = transcriptHeader(args) + "exit " + strconv.Itoa(code) + "\n" + stdout.String()
	}
	got := strings.Join(blocks, "")

	path := filepath.Join("testdata", "transcript.txt")
	if *updateTranscript {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d runs, %d bytes)", path, len(blocks), len(got))
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading transcript (regenerate with -update-transcript): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	// Name the first run that differs, with both versions of its block.
	rest := want
	for i, b := range blocks {
		if strings.HasPrefix(rest, b) {
			rest = rest[len(b):]
			continue
		}
		wantBlock := rest
		if next := strings.Index(rest, "\n$ trainsim "); next >= 0 {
			wantBlock = rest[:next+1]
		}
		t.Fatalf("run %d differs from the transcript:\n%s\nwant:\n%s", i+1, b, wantBlock)
	}
	t.Fatalf("the transcript holds %d bytes after the last run", len(rest))
}
