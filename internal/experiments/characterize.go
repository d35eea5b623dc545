package experiments

import (
	"fmt"
	"sort"

	"seqpoint/internal/engine"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/profiler"
	"seqpoint/internal/report"
	"seqpoint/internal/stats"
	"seqpoint/internal/tensor"
)

// Fig3Result is the CNN-vs-RNN iteration-homogeneity contrast (paper
// Fig. 3): per-iteration runtimes, normalized to each network's maximum,
// for a window of training iterations. CNN bars are flat; SQNN bars vary.
type Fig3Result struct {
	// Iterations is the number of sampled iterations per network.
	Iterations int
	// CNN and RNN hold the normalized per-iteration runtimes.
	CNN, RNN []float64
	// CNNSpreadPct and RNNSpreadPct are (max-min)/mean in percent.
	CNNSpreadPct, RNNSpreadPct float64
}

// Fig3 samples `n` evenly spaced iterations from one epoch of the CNN
// and the SQNN workload and compares their runtime variation.
func Fig3(lab *Lab, sqnn Workload, n int, cfg gpusim.Config) (Fig3Result, error) {
	if n <= 0 {
		return Fig3Result{}, fmt.Errorf("experiments: fig3 needs a positive sample count, got %d", n)
	}
	cnnRun, err := lab.Run(CNNWorkload(sqnn.Seed), cfg)
	if err != nil {
		return Fig3Result{}, err
	}
	rnnRun, err := lab.Run(sqnn, cfg)
	if err != nil {
		return Fig3Result{}, err
	}

	cnnTimes, err := sampleIterTimes(cnnRun.EpochPlans[0].SeqLens, cnnRun.BySL, n)
	if err != nil {
		return Fig3Result{}, err
	}
	rnnTimes, err := sampleIterTimes(rnnRun.EpochPlans[0].SeqLens, rnnRun.BySL, n)
	if err != nil {
		return Fig3Result{}, err
	}

	res := Fig3Result{Iterations: n}
	if res.CNN, err = stats.Normalize(cnnTimes); err != nil {
		return Fig3Result{}, err
	}
	if res.RNN, err = stats.Normalize(rnnTimes); err != nil {
		return Fig3Result{}, err
	}
	if res.CNNSpreadPct, err = stats.Spread(cnnTimes); err != nil {
		return Fig3Result{}, err
	}
	if res.RNNSpreadPct, err = stats.Spread(rnnTimes); err != nil {
		return Fig3Result{}, err
	}
	return res, nil
}

// sampleIterTimes picks n evenly spaced iterations from the epoch's
// execution order and returns their runtimes.
func sampleIterTimes(seqLens []int, bySL map[int]profiler.IterationProfile, n int) ([]float64, error) {
	if len(seqLens) < n {
		return nil, fmt.Errorf("experiments: epoch has %d iterations, need %d", len(seqLens), n)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		sl := seqLens[i*len(seqLens)/n]
		p, ok := bySL[sl]
		if !ok {
			return nil, fmt.Errorf("experiments: no profile for SL %d", sl)
		}
		out[i] = p.TimeUS
	}
	return out, nil
}

// Render formats the result as two bar charts.
func (r Fig3Result) Render() string {
	t := report.NewTable("Fig 3 — normalized per-iteration runtime (CNN vs SQNN)",
		"iteration", "cnn", "cnn bar", "sqnn", "sqnn bar").AlignNumeric()
	for i := range r.CNN {
		t.AddStringRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.3f", r.CNN[i]), report.Bar(r.CNN[i], 1, 20),
			fmt.Sprintf("%.3f", r.RNN[i]), report.Bar(r.RNN[i], 1, 20))
	}
	return t.String() + fmt.Sprintf("spread: cnn %.1f%%, sqnn %.1f%%\n", r.CNNSpreadPct, r.RNNSpreadPct)
}

// Fig4Counter names the hardware counters the experiment compares,
// matching the paper's Fig. 4 metrics.
type Fig4Counter string

// The three Fig. 4 counters.
const (
	CounterMemWriteStalls Fig4Counter = "mem-write-stalls"
	CounterVALUInsts      Fig4Counter = "valu-insts"
	CounterLoadData       Fig4Counter = "load-data-size"
)

// Fig4Row is one network's counter variation across sampled iterations.
type Fig4Row struct {
	// Network is the workload name.
	Network string
	// SeqLens are the sampled iterations' sequence lengths.
	SeqLens []int
	// Normalized maps each counter to per-iteration values scaled to the
	// iteration average (the paper normalizes to the mean across ops).
	Normalized map[Fig4Counter][]float64
	// SpreadPct maps each counter to its (max-min)/mean spread; the
	// paper quotes ~24-27% for these.
	SpreadPct map[Fig4Counter]float64
}

// Fig4Result holds the architectural-counter variation of both SQNNs.
type Fig4Result struct {
	Rows []Fig4Row
}

// Fig4 profiles `n` spread-out iterations of each workload on cfg and
// compares their aggregate hardware counters.
func Fig4(lab *Lab, workloads []Workload, n int, cfg gpusim.Config) (Fig4Result, error) {
	var res Fig4Result
	for _, w := range workloads {
		run, err := lab.Run(w, cfg)
		if err != nil {
			return Fig4Result{}, err
		}
		sls := spreadSLs(run.UniqueSLs(), n)
		row := Fig4Row{
			Network:    w.Name,
			SeqLens:    sls,
			Normalized: make(map[Fig4Counter][]float64),
			SpreadPct:  make(map[Fig4Counter]float64),
		}
		// The paper's Fig. 4 plots counters averaged across all of an
		// iteration's operations — per-kernel means, not iteration
		// totals — which is what the ~24-27% spreads refer to.
		raw := map[Fig4Counter][]float64{}
		for _, sl := range sls {
			p := run.BySL[sl]
			n := float64(p.NumKernels)
			raw[CounterMemWriteStalls] = append(raw[CounterMemWriteStalls], p.Counters.MemWriteStallCycles/n)
			raw[CounterVALUInsts] = append(raw[CounterVALUInsts], p.Counters.VALUInsts/n)
			raw[CounterLoadData] = append(raw[CounterLoadData], p.Counters.LoadBytes/n)
		}
		for c, vals := range raw {
			norm, err := stats.Normalize(vals)
			if err != nil {
				return Fig4Result{}, err
			}
			row.Normalized[c] = norm
			if row.SpreadPct[c], err = stats.Spread(vals); err != nil {
				return Fig4Result{}, err
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// spreadSLs picks n sequence lengths evenly spread over the sorted
// unique-SL list (including both extremes when possible).
func spreadSLs(sorted []int, n int) []int {
	if n >= len(sorted) {
		return append([]int(nil), sorted...)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		idx := i * (len(sorted) - 1) / (n - 1)
		if n == 1 {
			idx = len(sorted) / 2
		}
		out[i] = sorted[idx]
	}
	return out
}

// Render formats per-network counter spreads.
func (r Fig4Result) Render() string {
	var out string
	for _, row := range r.Rows {
		t := report.NewTable(
			fmt.Sprintf("Fig 4 — %s: normalized counters across iterations", row.Network),
			"counter", "spread", "per-iteration (normalized)").AlignNumeric()
		for _, c := range []Fig4Counter{CounterMemWriteStalls, CounterVALUInsts, CounterLoadData} {
			vals := ""
			for i, v := range row.Normalized[c] {
				if i > 0 {
					vals += " "
				}
				vals += fmt.Sprintf("%.2f", v)
			}
			t.AddStringRow(string(c), report.Pct(row.SpreadPct[c]), vals)
		}
		out += t.String()
	}
	return out
}

// TableIRow is one GEMM operation's dimensions at two sequence lengths
// (paper Table I): the M and K dimensions are fixed by the network; N
// varies with the iteration's sequence length.
type TableIRow struct {
	Network string
	Op      string
	M, K    int
	// N1 and N2 are the N dimensions at the two sampled SLs.
	N1, N2 int
	// SL1 and SL2 are the sampled sequence lengths.
	SL1, SL2 int
}

// TableIResult holds the classifier-GEMM shape comparison.
type TableIResult struct {
	Rows []TableIRow
}

// TableI extracts the classifier GEMM (GEMM-a: forward; GEMM-b: weight
// gradient) of each model at two sequence lengths and reports how the
// input-dependent dimension differs — the paper's Table I.
func TableI(m models.Model, batch, sl1, sl2 int) (TableIResult, error) {
	var res TableIResult
	for _, spec := range []struct {
		op    string
		label string
	}{
		{"GEMM-a", "classifier"},
		{"GEMM-b", "classifier_dgrad"},
	} {
		g1, err := findGEMM(m, batch, sl1, spec.label)
		if err != nil {
			return TableIResult{}, err
		}
		g2, err := findGEMM(m, batch, sl2, spec.label)
		if err != nil {
			return TableIResult{}, err
		}
		if g1.M != g2.M || g1.K != g2.K {
			return TableIResult{}, fmt.Errorf(
				"experiments: %s %s changed fixed dims across SLs: %dx%d vs %dx%d",
				m.Name(), spec.label, g1.M, g1.K, g2.M, g2.K)
		}
		res.Rows = append(res.Rows, TableIRow{
			Network: m.Name(), Op: spec.op,
			M: g1.M, K: g1.K, N1: g1.N, N2: g2.N, SL1: sl1, SL2: sl2,
		})
	}
	return res, nil
}

// findGEMM locates the first GEMM with the given label in an iteration's
// op stream.
func findGEMM(m models.Model, batch, seqLen int, label string) (tensor.GEMM, error) {
	for _, op := range tensor.Flatten(m.IterationBlocks(batch, seqLen)) {
		if g, ok := op.(tensor.GEMM); ok && g.Label == label {
			return g, nil
		}
	}
	return tensor.GEMM{}, fmt.Errorf("experiments: model %s has no GEMM labeled %q", m.Name(), label)
}

// Render formats Table I.
func (r TableIResult) Render() string {
	t := report.NewTable("Table I — GEMM dimensions across two iterations",
		"network", "op", "M", "K", "N (sl-1)", "N (sl-2)").AlignNumeric()
	for _, row := range r.Rows {
		t.AddStringRow(row.Network, row.Op,
			report.Count(row.M), report.Count(row.K),
			report.Count(row.N1), report.Count(row.N2))
	}
	return t.String()
}

// profileAt profiles one training iteration of w's model at the given SL
// on cfg (used by experiments that need iterations outside a full run),
// served through the shared engine so repeats across experiments hit
// the process-wide cache.
func profileAt(w Workload, cfg gpusim.Config, sl int) (profiler.IterationProfile, error) {
	return engine.Shared().Profile(cfg, w.Model, w.Batch, sl, engine.PhaseTrain)
}

// nearestSLs returns, for each requested SL, the nearest SL that actually
// occurs in the run (experiments ask for paper-specific SLs like 87/89
// that a seeded corpus may not hit exactly).
func nearestSLs(available []int, wanted []int) []int {
	sorted := append([]int(nil), available...)
	sort.Ints(sorted)
	out := make([]int, len(wanted))
	for i, w := range wanted {
		best, bestD := sorted[0], absInt(sorted[0]-w)
		for _, s := range sorted[1:] {
			if d := absInt(s - w); d < bestD {
				best, bestD = s, d
			}
		}
		out[i] = best
	}
	return out
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
