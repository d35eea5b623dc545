package experiments

import (
	"fmt"
	"sort"
	"strings"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/profiler"
	"seqpoint/internal/report"
)

// Fig5Pair is the unique-kernel overlap between two iterations of one
// workload (one bar group of the paper's Fig. 5).
type Fig5Pair struct {
	Network  string
	SL1, SL2 int
	// Common is the number of unique kernel symbols invoked in both
	// iterations; Only1/Only2 count kernels exclusive to one iteration.
	Common, Only1, Only2 int
}

// Total returns the union size of the two kernel sets.
func (p Fig5Pair) Total() int { return p.Common + p.Only1 + p.Only2 }

// ExclusivePct is the fraction of unique kernels present in only one of
// the two iterations, in percent (the paper reports up to ~20%).
func (p Fig5Pair) ExclusivePct() float64 {
	if p.Total() == 0 {
		return 0
	}
	return float64(p.Only1+p.Only2) / float64(p.Total()) * 100
}

// Fig5Result holds the kernel-set overlaps of several SL pairs.
type Fig5Result struct {
	Pairs []Fig5Pair
}

// Fig5 compares the unique-kernel sets of iterations at the given SL
// pairs. SLs are snapped to the nearest SL occurring in the workload's
// first epoch.
func Fig5(lab *Lab, w Workload, cfg gpusim.Config, slPairs [][2]int) (Fig5Result, error) {
	run, err := lab.Run(w, cfg)
	if err != nil {
		return Fig5Result{}, err
	}
	sim, err := gpusim.New(run.Config)
	if err != nil {
		return Fig5Result{}, err
	}
	avail := run.UniqueSLs()
	var res Fig5Result
	for _, pair := range slPairs {
		snapped := nearestSLs(avail, []int{pair[0], pair[1]})
		var bds [2]profiler.Breakdown
		for i, sl := range snapped {
			if bds[i], err = profiler.BreakdownStep(sim, run.Cluster, w.Model, run.Batch, sl); err != nil {
				return Fig5Result{}, err
			}
		}
		common, only1, only2 := profiler.Overlap(bds[0], bds[1])
		res.Pairs = append(res.Pairs, Fig5Pair{
			Network: w.Name, SL1: snapped[0], SL2: snapped[1],
			Common: common, Only1: only1, Only2: only2,
		})
	}
	return res, nil
}

// Render formats the overlap table.
func (r Fig5Result) Render() string {
	t := report.NewTable("Fig 5 — unique-kernel overlap between iteration pairs",
		"network", "sl pair", "common", "only-in-1", "only-in-2", "exclusive").AlignNumeric()
	for _, p := range r.Pairs {
		t.AddStringRow(p.Network, fmt.Sprintf("%d vs %d", p.SL1, p.SL2),
			fmt.Sprintf("%d", p.Common), fmt.Sprintf("%d", p.Only1),
			fmt.Sprintf("%d", p.Only2), report.Pct(p.ExclusivePct()))
	}
	return t.String()
}

// KernelGroup is a named predicate over layer-level op labels, used to
// group kernels the way the paper's Figs 6 and 8 group "GEMM-1",
// "GEMM-2", "reduce", "scalar-op".
type KernelGroup struct {
	// Name labels the group in output.
	Name string
	// Match reports whether an op label belongs to the group. Groups are
	// tested in order; the first match wins.
	Match func(label string) bool
}

// DefaultKernelGroups groups the paper's way for our two SQNNs:
// GEMM-group-1 is the SL-proportional work (recurrent projections,
// attention), GEMM-group-2 the fixed-count large GEMMs (classifier),
// plus reductions and pointwise scalar ops.
func DefaultKernelGroups() []KernelGroup {
	return []KernelGroup{
		{Name: "GEMM-classifier", Match: func(l string) bool {
			return strings.HasPrefix(l, "classifier")
		}},
		{Name: "GEMM-recurrent", Match: func(l string) bool {
			return strings.Contains(l, "proj") || strings.Contains(l, "_keys") ||
				strings.Contains(l, "_query") || strings.Contains(l, "_context")
		}},
		{Name: "conv", Match: func(l string) bool {
			return strings.HasPrefix(l, "conv")
		}},
		{Name: "reduce", Match: func(l string) bool {
			return strings.Contains(l, "_max") || strings.Contains(l, "_sum") ||
				strings.Contains(l, "_stats") || strings.Contains(l, "_vdot") ||
				strings.Contains(l, "_norm")
		}},
		{Name: "scalar-op", Match: func(string) bool { return true }},
	}
}

// GroupShares buckets an iteration's per-label runtime, from its
// breakdown bd, into groups and returns each group's share of the
// profile's total runtime in percent. Time no label accounts for,
// including a cluster step's exposed communication, is "other".
func GroupShares(p profiler.IterationProfile, bd profiler.Breakdown, groups []KernelGroup) map[string]float64 {
	shares := make(map[string]float64, len(groups))
	if p.TimeUS == 0 {
		return shares
	}
	var labeled float64
	for label, us := range bd.LabelTimeUS {
		for _, g := range groups {
			if g.Match(label) {
				shares[g.Name] += us / p.TimeUS * 100
				break
			}
		}
		labeled += us
	}
	if rest := p.TimeUS - labeled; rest > 1e-9 {
		shares["other"] += rest / p.TimeUS * 100
	}
	return shares
}

// Fig6Column is one iteration's runtime distribution over kernel groups.
type Fig6Column struct {
	Network string
	SeqLen  int
	// SharePct maps group name to percent of iteration runtime.
	SharePct map[string]float64
}

// Fig6Result holds runtime distributions for iterations at several SLs.
type Fig6Result struct {
	Groups  []string
	Columns []Fig6Column
}

// Fig6 computes each iteration's runtime distribution over kernel groups
// at the given SLs (snapped to occurring SLs): the paper's Fig. 6 shows
// these distributions shifting with SL; Fig. 8 shows them nearly
// identical for nearby SLs. Both reuse this experiment with different SL
// choices.
func Fig6(lab *Lab, w Workload, cfg gpusim.Config, sls []int) (Fig6Result, error) {
	run, err := lab.Run(w, cfg)
	if err != nil {
		return Fig6Result{}, err
	}
	sim, err := gpusim.New(run.Config)
	if err != nil {
		return Fig6Result{}, err
	}
	snapped := nearestSLs(run.UniqueSLs(), sls)
	groups := DefaultKernelGroups()
	res := Fig6Result{}
	for _, g := range groups {
		res.Groups = append(res.Groups, g.Name)
	}
	seen := map[int]bool{}
	for _, sl := range snapped {
		if seen[sl] {
			continue
		}
		seen[sl] = true
		bd, err := profiler.BreakdownStep(sim, run.Cluster, w.Model, run.Batch, sl)
		if err != nil {
			return Fig6Result{}, err
		}
		res.Columns = append(res.Columns, Fig6Column{
			Network:  w.Name,
			SeqLen:   sl,
			SharePct: GroupShares(run.BySL[sl], bd, groups),
		})
	}
	sort.Slice(res.Columns, func(i, j int) bool { return res.Columns[i].SeqLen < res.Columns[j].SeqLen })
	return res, nil
}

// MaxGroupShiftPct returns the largest per-group share difference
// between any two columns — the quantity that is large across distant
// SLs (Fig. 6) and small across nearby SLs (Fig. 8).
func (r Fig6Result) MaxGroupShiftPct() float64 {
	var max float64
	for _, g := range r.Groups {
		for i := range r.Columns {
			for j := i + 1; j < len(r.Columns); j++ {
				d := r.Columns[i].SharePct[g] - r.Columns[j].SharePct[g]
				if d < 0 {
					d = -d
				}
				if d > max {
					max = d
				}
			}
		}
	}
	return max
}

// PairShiftPct returns the largest per-group share difference between
// columns i and j.
func (r Fig6Result) PairShiftPct(i, j int) float64 {
	var max float64
	for _, g := range r.Groups {
		d := r.Columns[i].SharePct[g] - r.Columns[j].SharePct[g]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Render formats the distribution columns.
func (r Fig6Result) Render() string {
	headers := append([]string{"group"}, func() []string {
		var hs []string
		for _, c := range r.Columns {
			hs = append(hs, fmt.Sprintf("SL %d", c.SeqLen))
		}
		return hs
	}()...)
	network := ""
	if len(r.Columns) > 0 {
		network = r.Columns[0].Network
	}
	t := report.NewTable(
		fmt.Sprintf("Fig 6/8 — %s: runtime share by kernel group", network),
		headers...).AlignNumeric()
	for _, g := range r.Groups {
		row := []string{g}
		for _, c := range r.Columns {
			row = append(row, report.Pct(c.SharePct[g]))
		}
		t.AddStringRow(row...)
	}
	return t.String() + fmt.Sprintf("max group shift: %.2f pp\n", r.MaxGroupShiftPct())
}
