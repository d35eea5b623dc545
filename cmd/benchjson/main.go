// Command benchjson converts `go test -bench` text output on stdin
// into a machine-readable JSON document on stdout — the format CI
// archives as BENCH_ci.json so benchmark trajectories can be compared
// across commits without re-parsing Go's bench text each time. The
// document type and the parser live in internal/benchdoc.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x ./... | benchjson > BENCH_ci.json
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"seqpoint/internal/benchdoc"
)

func main() {
	doc, err := benchdoc.Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
