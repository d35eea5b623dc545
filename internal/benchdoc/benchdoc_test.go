package benchdoc

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: seqpoint
cpu: AMD EPYC 7B13
BenchmarkSelect/gnmt-8         	       1	   1234567 ns/op
BenchmarkEngineSweep-8        	       1	 987654321 ns/op	  443216 B/op	    1024 allocs/op
PASS
ok  	seqpoint	1.503s
pkg: seqpoint/internal/engine
BenchmarkProfile 	       2	    555555 ns/op
PASS
ok  	seqpoint/internal/engine	0.702s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" {
		t.Fatalf("headers not captured: %+v", doc)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(doc.Results))
	}

	r0 := doc.Results[0]
	if r0.Name != "BenchmarkSelect/gnmt" || r0.Procs != 8 || r0.Package != "seqpoint" {
		t.Fatalf("result 0: %+v", r0)
	}
	if r0.NsPerOp != 1234567 || r0.Iterations != 1 {
		t.Fatalf("result 0 metrics: %+v", r0)
	}

	r1 := doc.Results[1]
	if r1.Metrics["B/op"] != 443216 || r1.Metrics["allocs/op"] != 1024 || r1.NsPerOp != 987654321 {
		t.Fatalf("result 1 metrics: %+v", r1)
	}

	r2 := doc.Results[2]
	if r2.Name != "BenchmarkProfile" || r2.Procs != 1 || r2.Package != "seqpoint/internal/engine" {
		t.Fatalf("result 2: %+v", r2)
	}
	if r2.Iterations != 2 || r2.NsPerOp != 555555 {
		t.Fatalf("result 2 metrics: %+v", r2)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []string{
		"BenchmarkX\t notanumber\t 12 ns/op\n",
		"BenchmarkX\t 1\t 12 ns/op extra\n",
		"BenchmarkX\t 1\t abc ns/op\n",
	}
	for _, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("malformed line %q parsed without error", strings.TrimSpace(in))
		}
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	doc, err := Parse(strings.NewReader("PASS\nok  \tseqpoint\t0.1s\nBenchmarkRunning\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 0 {
		t.Fatalf("noise produced %d results", len(doc.Results))
	}
}
