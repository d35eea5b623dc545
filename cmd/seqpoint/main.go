// Command seqpoint identifies SeqPoints for a model + dataset + batch
// size: it simulates one training epoch on the calibration configuration
// (config #1), logs the unique sequence lengths, runs the SeqPoint
// selection, and prints the selected representatives with their weights
// alongside the baselines' picks.
//
// Usage:
//
//	seqpoint -model gnmt -batch 64 -seed 1 -e 0.1 -n 10
package main

import (
	"flag"
	"fmt"
	"os"

	"seqpoint/internal/core"
	"seqpoint/internal/experiments"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/report"
)

func main() {
	var (
		model = flag.String("model", "gnmt", "model to analyze: ds2, gnmt, transformer or seq2seq")
		batch = flag.Int("batch", experiments.DefaultBatch, "minibatch size")
		seed  = flag.Int64("seed", experiments.DefaultSeed, "dataset/shuffle seed")
		eThr  = flag.Float64("e", core.DefaultErrorThresholdPct, "error threshold e in percent")
		nThr  = flag.Int("n", core.DefaultMaxUniqueNoBinning, "unique-SL threshold n below which all SLs are taken")
		kInit = flag.Int("k", core.DefaultInitialBins, "initial bin count k")
	)
	flag.Parse()

	if err := run(*model, *batch, *seed, *eThr, *nThr, *kInit); err != nil {
		fmt.Fprintln(os.Stderr, "seqpoint:", err)
		os.Exit(1)
	}
}

func run(model string, batch int, seed int64, eThr float64, nThr, kInit int) error {
	w, err := experiments.ServedWorkloadByName(model, seed)
	if err != nil {
		return err
	}
	w.Batch = batch
	w.Epochs = 1

	lab := experiments.NewLab()
	cfg := gpusim.VegaFE()
	runSim, err := lab.Run(w, cfg)
	if err != nil {
		return err
	}
	recs, err := experiments.SLRecords(runSim, 0)
	if err != nil {
		return err
	}

	opts := core.Options{
		MaxUniqueNoBinning: nThr,
		InitialBins:        kInit,
		ErrorThresholdPct:  eThr,
	}
	sel, err := core.Select(recs, opts)
	if err != nil {
		return err
	}

	fmt.Printf("model=%s dataset=%s batch=%d iterations/epoch=%d uniqueSLs=%d\n",
		w.Name, w.Train.Name, w.Batch, runSim.EpochPlans[0].Iterations(), len(recs))
	fmt.Printf("selection: k=%d binned=%v self-projection error=%s\n\n",
		sel.Bins, sel.Binned, report.Pct(sel.ErrorPct))

	t := report.NewTable("SeqPoints", "#", "seqlen", "weight (iters)", "iter time").AlignNumeric()
	for i, p := range sel.Points {
		t.AddStringRow(fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", p.SeqLen),
			fmt.Sprintf("%.0f", p.Weight), report.US(p.Stat))
	}
	fmt.Print(t.String())

	// Baseline picks for comparison.
	fmt.Println()
	bt := report.NewTable("Baseline selections", "method", "seqlen(s)", "self error").AlignNumeric()
	for _, m := range []struct {
		name string
		fn   func([]core.SLRecord) (core.Selection, error)
	}{
		{"frequent", core.Frequent},
		{"median", core.Median},
		{"worst", core.Worst},
	} {
		s, err := m.fn(recs)
		if err != nil {
			return err
		}
		bt.AddStringRow(m.name, fmt.Sprintf("%d", s.Points[0].SeqLen), report.Pct(s.ErrorPct))
	}
	fmt.Print(bt.String())
	return nil
}
