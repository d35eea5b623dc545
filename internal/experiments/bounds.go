package experiments

import (
	"fmt"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/report"
	"seqpoint/internal/tensor"
)

// BoundSharesRow is one iteration's roofline decomposition: the share
// of runtime in compute-, memory- and launch-bound kernels.
type BoundSharesRow struct {
	SeqLen int
	// Share maps each bound class to its fraction of iteration time.
	Share map[gpusim.Bound]float64
}

// BoundSharesResult explains the mechanism behind the paper's
// sensitivity curves (Figs 13/14): the mix of compute-, memory- and
// launch-bound kernels shifts with sequence length, so hardware changes
// that target one leg (clock -> compute, caches/bandwidth -> memory)
// speed different iterations up by different amounts. It holds per-SL
// roofline decompositions for one workload on one configuration.
type BoundSharesResult struct {
	Network string
	Config  string
	Rows    []BoundSharesRow
}

// BoundShares decomposes iterations at n spread-out SLs of the
// workload's epoch under cfg.
func BoundShares(lab *Lab, w Workload, cfg gpusim.Config, n int) (BoundSharesResult, error) {
	run, err := lab.Run(w, cfg)
	if err != nil {
		return BoundSharesResult{}, err
	}
	sim, err := gpusim.New(cfg)
	if err != nil {
		return BoundSharesResult{}, err
	}
	res := BoundSharesResult{Network: w.Name, Config: cfg.Name}
	for _, sl := range spreadSLs(run.UniqueSLs(), n) {
		ops := tensor.Flatten(w.Model.IterationBlocks(w.Batch, sl))
		res.Rows = append(res.Rows, BoundSharesRow{
			SeqLen: sl,
			Share:  sim.BoundShares(ops),
		})
	}
	return res, nil
}

// Render formats the decomposition table.
func (r BoundSharesResult) Render() string {
	t := report.NewTable(
		fmt.Sprintf("Roofline decomposition — %s on %s: runtime share by bound", r.Network, r.Config),
		"seqlen", "compute", "memory", "launch").AlignNumeric()
	for _, row := range r.Rows {
		t.AddStringRow(
			fmt.Sprintf("%d", row.SeqLen),
			report.Pct(row.Share[gpusim.BoundCompute]*100),
			report.Pct(row.Share[gpusim.BoundMemory]*100),
			report.Pct(row.Share[gpusim.BoundLaunch]*100))
	}
	return t.String()
}
