// Command papercheck verifies, end to end, that the reproduced system
// exhibits every qualitative claim the paper's evaluation rests on. It
// regenerates the experiments and asserts the claims programmatically,
// printing PASS/FAIL per claim — a regression gate for the reproduction
// itself.
//
// Usage:
//
//	papercheck [-seed 1] [-parallelism N]
package main

import (
	"flag"
	"fmt"
	"os"

	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", experiments.DefaultSeed, "dataset/shuffle seed")
	par := flag.Int("parallelism", 0, "concurrent simulation/profiling workers (0 = GOMAXPROCS)")
	flag.Parse()

	engine.Shared().SetParallelism(*par)
	s := experiments.NewSuite(*seed)
	failed := 0
	for _, c := range experiments.Claims() {
		ok, detail, err := c.Eval(s)
		switch {
		case err != nil:
			fmt.Printf("ERROR %-12s %s: %v\n", c.ID, c.Text, err)
			failed++
		case ok:
			fmt.Printf("PASS  %-12s %s (%s)\n", c.ID, c.Text, detail)
		default:
			fmt.Printf("FAIL  %-12s %s (%s)\n", c.ID, c.Text, detail)
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("\n%d claim(s) failed\n", failed)
		os.Exit(1)
	}
	fmt.Println("\nall claims hold")
}
