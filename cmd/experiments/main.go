// Command experiments regenerates every table and figure of the paper's
// evaluation (Table I, Table II, Figs 3-9 and 11-16, the Section VI-F
// profiling-cost analysis and the Section VII-C k-means ablation) from
// the simulated substrate, writing the renderings to stdout or a file.
// Its output is the data recorded in EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-seed 1] [-o experiments.txt] [-csv DIR] [-parallelism N]
//	experiments -gpus 1,2,4,8 -topology mesh -linkgbps 50
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
	"seqpoint/internal/gpusim"
)

func main() {
	var (
		seed     = flag.Int64("seed", experiments.DefaultSeed, "dataset/shuffle seed")
		out      = flag.String("o", "", "write output to this file instead of stdout")
		csvDir   = flag.String("csv", "", "also write figure-backing CSV files into this directory")
		par      = flag.Int("parallelism", 0, "concurrent simulation/profiling workers (0 = GOMAXPROCS)")
		gpus     = flag.String("gpus", "", "comma-separated GPU counts for the scale-out experiment (default 1,2,4,8)")
		topology = flag.String("topology", string(gpusim.TopologyRing), "scale-out interconnect: ring or mesh")
		linkGBps = flag.Float64("linkgbps", gpusim.DefaultLinkGBps, "scale-out per-link bandwidth in GB/s")
	)
	flag.Parse()
	engine.Shared().SetParallelism(*par)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	suite := experiments.NewSuite(*seed)
	if err := configureScaleOut(suite, *gpus, *topology, *linkGBps); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	csvs, err := suite.RunAll(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *csvDir != "" {
		if err := writeCSVs(csvs, *csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\nwrote figure CSVs to %s\n", *csvDir)
	}
	fmt.Fprintf(w, "\nall experiments completed in %s\n", time.Since(start).Round(time.Millisecond))
}

// configureScaleOut applies the cluster flags to the suite's scale-out
// experiment.
func configureScaleOut(suite *experiments.Suite, gpus, topology string, linkGBps float64) error {
	topo, err := gpusim.ParseTopology(topology)
	if err != nil {
		return err
	}
	suite.BaseCluster.Topology = topo
	suite.BaseCluster.LinkGBps = linkGBps
	if gpus != "" {
		var counts []int
		for _, part := range strings.Split(gpus, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -gpus entry %q: %w", part, err)
			}
			counts = append(counts, n)
		}
		suite.ScaleGPUs = counts
	}
	return suite.BaseCluster.Validate()
}

// writeCSVs dumps the figure-backing data series, one file per figure.
func writeCSVs(csvs map[string]string, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, content := range csvs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
