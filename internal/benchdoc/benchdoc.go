// Package benchdoc is the benchmark document shared by cmd/benchjson,
// which writes it from `go test -bench` text, and cmd/benchgate, which
// compares two of them: one Result and Document type, one parser and
// one loader.
package benchdoc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Package is the Go package the benchmark ran in (from the
	// preceding "pkg:" header line; empty if none was seen).
	Package string `json:"package,omitempty"`
	// Name is the benchmark name without the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Iterations is b.N for the measured run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline metric when the line reports one.
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// Metrics holds every reported "<value> <unit>" pair, including
	// ns/op, B/op and allocs/op.
	Metrics map[string]float64 `json:"metrics"`
}

// Document is the archived artifact: environment headers plus results.
type Document struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Results []Result `json:"results"`
}

// Parse reads `go test -bench` output and extracts every benchmark
// result, tolerating interleaved PASS/ok/FAIL lines from multi-package
// runs. Malformed benchmark lines are an error: a silently dropped
// result would show up as a vanished benchmark in the trajectory.
func Parse(r io.Reader) (Document, error) {
	doc := Document{Results: []Result{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		res, ok, err := parseBenchLine(line)
		if err != nil {
			return doc, err
		}
		if ok {
			res.Package = pkg
			doc.Results = append(doc.Results, res)
		}
	}
	return doc, sc.Err()
}

// parseBenchLine parses one "BenchmarkName-P  N  v1 u1  v2 u2 ..."
// line. Lines that merely start with "Benchmark" but carry no fields
// (a running benchmark's name echo) report ok=false.
func parseBenchLine(line string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false, nil
	}
	res := Result{Procs: 1, Metrics: map[string]float64{}}

	res.Name = fields[0]
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil && p > 0 {
			res.Procs = p
			res.Name = res.Name[:i]
		}
	}

	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	res.Iterations = n

	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Result{}, false, fmt.Errorf("odd metric fields in %q", line)
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("bad metric value in %q: %w", line, err)
		}
		unit := rest[i+1]
		res.Metrics[unit] = v
		if unit == "ns/op" {
			res.NsPerOp = v
		}
	}
	return res, true, nil
}

// Load reads one document from disk.
func Load(path string) (Document, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	var doc Document
	if err := json.Unmarshal(buf, &doc); err != nil {
		return Document{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}
