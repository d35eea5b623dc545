package trainer

import (
	"math"
	"testing"

	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
)

func tinyInferenceSpec(t *testing.T) InferenceSpec {
	t.Helper()
	lengths := make([]int, 96)
	for i := range lengths {
		lengths[i] = 10 + (i*13)%70
	}
	c, err := dataset.Synthetic("requests", lengths, 100)
	if err != nil {
		t.Fatal(err)
	}
	return InferenceSpec{
		Model:    models.NewDS2(),
		Requests: c,
		Batch:    8,
		Seed:     1,
	}
}

func TestInferenceSpecValidate(t *testing.T) {
	good := tinyInferenceSpec(t)
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []func(*InferenceSpec){
		func(s *InferenceSpec) { s.Model = nil },
		func(s *InferenceSpec) { s.Requests = nil },
		func(s *InferenceSpec) { s.Batch = 0 },
	}
	for i, mut := range bad {
		s := tinyInferenceSpec(t)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate", i)
		}
	}
}

func TestSimulateInferenceAccounting(t *testing.T) {
	spec := tinyInferenceSpec(t)
	run, err := SimulateInference(spec, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(run.BatchSLs), 96/8; got != want {
		t.Errorf("batches = %d, want %d", got, want)
	}
	if run.TotalUS <= 0 {
		t.Error("serving time must be positive")
	}
	var sum float64
	for _, sl := range run.BatchSLs {
		sum += run.LatencyBySL[sl]
	}
	if math.Abs(sum-run.TotalUS) > 1e-6*run.TotalUS {
		t.Errorf("TotalUS %v != per-batch sum %v", run.TotalUS, sum)
	}
}

func TestInferenceCheaperThanTraining(t *testing.T) {
	spec := tinyInferenceSpec(t)
	inf, err := SimulateInference(spec, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	train, err := Simulate(Spec{
		Model:    spec.Model,
		Train:    spec.Requests,
		Batch:    spec.Batch,
		Epochs:   1,
		Schedule: dataset.DS2Schedule(),
		Seed:     1,
	}, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	if inf.TotalUS >= train.TrainUS {
		t.Errorf("forward-only serving (%v) should be cheaper than training (%v)",
			inf.TotalUS, train.TrainUS)
	}
}

func TestInferenceLatencyPercentiles(t *testing.T) {
	spec := tinyInferenceSpec(t)
	run, err := SimulateInference(spec, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	p50, p90, p99 := run.LatencyPercentiles()
	if !(p50 <= p90 && p90 <= p99) {
		t.Errorf("percentiles not monotone: %v %v %v", p50, p90, p99)
	}
	if p50 <= 0 {
		t.Error("p50 must be positive")
	}
	// Heterogeneous request lengths produce a latency tail.
	if p99 <= p50 {
		t.Error("SL heterogeneity should spread the latency distribution")
	}
	empty := &InferenceRun{}
	if a, b, c := empty.LatencyPercentiles(); a != 0 || b != 0 || c != 0 {
		t.Error("empty run percentiles")
	}
}

func TestInferenceSLSummaries(t *testing.T) {
	spec := tinyInferenceSpec(t)
	run, err := SimulateInference(spec, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	sums := run.SLSummaries()
	if len(sums) != len(run.LatencyBySL) {
		t.Error("summary should cover every unique SL")
	}
	var total int
	for i, s := range sums {
		total += s.Count
		if s.IterTimeUS != run.LatencyBySL[s.SeqLen] {
			t.Errorf("SL %d latency mismatch", s.SeqLen)
		}
		if i > 0 && sums[i].SeqLen <= sums[i-1].SeqLen {
			t.Error("summaries not sorted")
		}
	}
	if total != len(run.BatchSLs) {
		t.Errorf("summary counts %d != batches %d", total, len(run.BatchSLs))
	}
}

func TestInferenceSlowerConfigSlower(t *testing.T) {
	spec := tinyInferenceSpec(t)
	cfgs := gpusim.TableII()
	fast, err := SimulateInference(spec, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	slow, err := SimulateInference(spec, cfgs[1])
	if err != nil {
		t.Fatal(err)
	}
	if slow.TotalUS <= fast.TotalUS {
		t.Error("852 MHz should serve slower than 1.6 GHz")
	}
}

func TestSimulateInferenceRejectsInvalid(t *testing.T) {
	spec := tinyInferenceSpec(t)
	spec.Batch = -1
	if _, err := SimulateInference(spec, gpusim.VegaFE()); err == nil {
		t.Error("invalid spec should error")
	}
	if _, err := SimulateInference(tinyInferenceSpec(t), gpusim.Config{}); err == nil {
		t.Error("invalid config should error")
	}
}
