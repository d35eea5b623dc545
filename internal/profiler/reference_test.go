package profiler

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/nn"
	"seqpoint/internal/tensor"
)

// referenceAutotuneUS is the autotune charge as it was computed before
// profiles recorded their tuned shapes: it rebuilds the iteration's
// flat op stream and prices the first launch of every new GEMM/conv
// signature.
func referenceAutotuneUS(sim *gpusim.Simulator, m models.Model, batch, seqLen int, seen map[string]bool) float64 {
	var us float64
	for _, op := range tensor.Flatten(m.IterationBlocks(batch, seqLen)) {
		if op.Kind() != tensor.KindGEMM && op.Kind() != tensor.KindConv2D {
			continue
		}
		sig := op.Signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		inv := sim.Price(op)
		us += autotuneSetupUS + autotuneTrials*inv.TimeUS
	}
	return us
}

// referenceProfile aggregates a flat op stream, pricing every op at
// every launch, into both the lean profile and the kernel and label
// breakdown. With tune set it records the tuned shapes from those
// per-launch prices.
func referenceProfile(sim *gpusim.Simulator, ops []tensor.Op, batch, seqLen int, tune bool) (IterationProfile, Breakdown) {
	p := IterationProfile{SeqLen: seqLen, Batch: batch}
	bd := Breakdown{LabelTimeUS: make(map[string]float64)}
	byKernel := make(map[string]*KernelStat)
	tuned := make(map[string]bool)
	for _, op := range ops {
		inv := sim.Price(op)
		p.TimeUS += inv.TimeUS
		p.NumKernels++
		p.Counters.Add(inv.Counters)
		ks, ok := byKernel[inv.Kernel]
		if !ok {
			ks = &KernelStat{Kernel: inv.Kernel, Kind: inv.Kind}
			byKernel[inv.Kernel] = ks
		}
		ks.Count++
		ks.TimeUS += inv.TimeUS
		ks.Counters.Add(inv.Counters)
		if inv.Label != "" {
			bd.LabelTimeUS[inv.Label] += inv.TimeUS
		}
		if tune && (op.Kind() == tensor.KindGEMM || op.Kind() == tensor.KindConv2D) && !tuned[op.Signature()] {
			tuned[op.Signature()] = true
			p.TunedShapes = append(p.TunedShapes, TunedShape{Signature: op.Signature(), TimeUS: inv.TimeUS})
		}
	}
	bd.Kernels = make([]KernelStat, 0, len(byKernel))
	for _, ks := range byKernel {
		bd.Kernels = append(bd.Kernels, *ks)
	}
	sort.Slice(bd.Kernels, func(i, j int) bool {
		if bd.Kernels[i].TimeUS != bd.Kernels[j].TimeUS {
			return bd.Kernels[i].TimeUS > bd.Kernels[j].TimeUS
		}
		return bd.Kernels[i].Kernel < bd.Kernels[j].Kernel
	})
	return p, bd
}

// referenceStep is ProfileStep and BreakdownStep over referenceProfile.
func referenceStep(sim *gpusim.Simulator, cl gpusim.ClusterConfig, m models.Model, shardBatch, seqLen int) (IterationProfile, Breakdown) {
	p, bd := referenceProfile(sim, tensor.Flatten(m.IterationBlocks(shardBatch, seqLen)), shardBatch, seqLen, true)
	if cl.GPUs > 1 {
		p.CommUS = cl.ExposedCommUS(cl.AllReduceUS(models.GradientBytes(m)), p.TimeUS)
		p.TimeUS += p.CommUS
	}
	return p, bd
}

// customModel is a user-assembled SQNN mixing every per-timestep layer
// kind: a bidirectional GRU, attention over the input and a classifier.
func customModel(t *testing.T) models.Model {
	t.Helper()
	m, err := models.NewCustom("custom-mix", 2_000_000,
		func(batch, seqLen int) nn.Activation {
			return nn.Activation{Batch: batch, Time: seqLen, Feat: 96}
		},
		func(seqLen int) []nn.Layer {
			return []nn.Layer{
				nn.NewRecurrent("bigru", nn.CellGRU, 128, true),
				nn.NewAttention("attn", 256, seqLen),
				nn.NewDense("classifier", 40, false),
				nn.NewSoftmax("softmax"),
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMemoizedProfileMatchesReference checks block-wise pricing, the
// on-demand breakdown and the tuned-shape autotune charge against the
// per-launch reference over the flattened stream, for every model
// family, several shard batches, SLs across each model's range (listed
// in an unsorted, plan-like order) and 1 and 4 GPUs. ProfileStep must
// deep-equal the lean reference and BreakdownStep the reference
// breakdown; autotune summed over the SLs with one shared seen map must
// be bit-equal.
func TestMemoizedProfileMatchesReference(t *testing.T) {
	s := sim(t)
	cases := []struct {
		m   models.Model
		sls []int
	}{
		{models.NewDS2(), []int{163, 50, 500, 281}},
		{models.NewGNMT(), []int{17, 1, 220, 64}},
		{models.NewTransformer(), []int{33, 2, 150, 9}},
		{models.NewSeq2Seq(), []int{40, 3, 199, 12}},
		{models.NewCNN(), []int{1, 7}},
		{customModel(t), []int{21, 4, 90, 13}},
	}
	for _, tc := range cases {
		for _, shard := range []int{1, 3, 16, 64} {
			for _, gpus := range []int{1, 4} {
				cl := gpusim.DefaultCluster(gpus)
				t.Run(fmt.Sprintf("%s/shard%d/gpus%d", tc.m.Name(), shard, gpus), func(t *testing.T) {
					seen, refSeen := make(map[string]bool), make(map[string]bool)
					var got, want float64
					for _, sl := range tc.sls {
						p, err := ProfileStep(s, cl, tc.m, shard*gpus, sl)
						if err != nil {
							t.Fatal(err)
						}
						ref, refBD := referenceStep(s, cl, tc.m, shard, sl)
						if !reflect.DeepEqual(p, ref) {
							t.Fatalf("SL %d: block-priced profile differs from the reference", sl)
						}
						bd, err := BreakdownStep(s, cl, tc.m, shard*gpus, sl)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(bd, refBD) {
							t.Fatalf("SL %d: block-priced breakdown differs from the reference", sl)
						}
						got += AutotuneUS(p, seen)
						want += referenceAutotuneUS(s, tc.m, shard, sl, refSeen)
					}
					if got != want {
						t.Fatalf("autotune over SLs %v: %v us, reference %v us", tc.sls, got, want)
					}
					if !reflect.DeepEqual(seen, refSeen) {
						t.Fatalf("tuned %d signatures, reference %d", len(seen), len(refSeen))
					}
				})
			}
		}
	}
}

func TestEvalProfileMatchesReferenceAndTunesNothing(t *testing.T) {
	s := sim(t)
	for _, m := range []models.Model{models.NewDS2(), models.NewGNMT(), models.NewTransformer(), customModel(t)} {
		p, err := ProfileEval(s, m, 8, 60)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := referenceProfile(s, tensor.Flatten(m.EvalBlocks(8, 60)), 8, 60, false); !reflect.DeepEqual(p, want) {
			t.Errorf("%s: block-priced eval profile differs from the reference", m.Name())
		}
		if p.TunedShapes != nil {
			t.Errorf("%s: eval profile records %d tuned shapes, want none", m.Name(), len(p.TunedShapes))
		}
	}
}

// sliceOp is a tensor.Op implemented outside package tensor whose
// dynamic type is not comparable: pricing must never use an op as a map
// key, or it would panic.
type sliceOp struct {
	dims  []int
	label string
}

func (o sliceOp) Kind() tensor.Kind { return tensor.KindGEMM }
func (o sliceOp) FLOPs() float64 {
	return 2 * float64(o.dims[0]) * float64(o.dims[1]) * float64(o.dims[2])
}
func (o sliceOp) BytesRead() float64 {
	return float64(o.dims[0]*o.dims[2]+o.dims[2]*o.dims[1]) * tensor.ElemSize
}
func (o sliceOp) BytesWritten() float64 { return float64(o.dims[0]*o.dims[1]) * tensor.ElemSize }
func (o sliceOp) WorkingSet() float64   { return o.BytesRead() }
func (o sliceOp) Signature() string {
	return fmt.Sprintf("gemm:%dx%dx%d:%s", o.dims[0], o.dims[1], o.dims[2], o.label)
}

// sliceOpModel is GNMT with one non-comparable op launched once per
// timestep, the same value every time.
type sliceOpModel struct{ models.Model }

func (m sliceOpModel) IterationBlocks(batch, seqLen int) []tensor.Block {
	blocks := m.Model.IterationBlocks(batch, seqLen)
	return append(blocks,
		tensor.Block{Ops: []tensor.Op{sliceOp{dims: []int{64, batch, 32}, label: "custom_step"}}, Repeat: seqLen},
		tensor.Block{Ops: []tensor.Op{sliceOp{dims: []int{128, batch * seqLen, 64}, label: "custom_all"}}, Repeat: 1},
	)
}

// TestNonComparableOpPricedNotHashed proves an op type that cannot key
// a map is priced without being hashed instead of panicking, with the
// same profile and autotune charge as the reference.
func TestNonComparableOpPricedNotHashed(t *testing.T) {
	s := sim(t)
	m := sliceOpModel{models.NewGNMT()}
	seen, refSeen := make(map[string]bool), make(map[string]bool)
	for _, sl := range []int{5, 12} {
		p := trainProfile(t, s, m, 4, sl)
		want, wantBD := referenceProfile(s, tensor.Flatten(m.IterationBlocks(4, sl)), 4, sl, true)
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("SL %d: profile with a non-comparable op differs from the reference", sl)
		}
		if bd := breakdownOps(s, m.IterationBlocks(4, sl)); !reflect.DeepEqual(bd, wantBD) {
			t.Fatalf("SL %d: breakdown with a non-comparable op differs from the reference", sl)
		}
		if got, want := AutotuneUS(p, seen), referenceAutotuneUS(s, m, 4, sl, refSeen); got != want {
			t.Fatalf("SL %d: autotune %v us, reference %v us", sl, got, want)
		}
		if !refSeen["gemm:64x4x32:custom_step"] || !seen["gemm:64x4x32:custom_step"] {
			t.Fatal("the non-comparable op's shape was not tuned")
		}
	}
}

// TestNonPositiveRepeatLaunchesNothing: a block with Repeat 0 or below
// launches nothing, so it adds no time, kernel, label or tuned shape to
// the profile or the breakdown, exactly as the reference over the
// flattened stream sees it.
func TestNonPositiveRepeatLaunchesNothing(t *testing.T) {
	s := sim(t)
	skipped := []tensor.Op{
		tensor.NewGEMM(96, 48, 512, "skipped_gemm"),
		tensor.NewConv2D(2, 8, 16, 16, 8, 3, 3, 1, 1, 1, 1, "skipped_conv"),
		tensor.NewElementwise(4096, 3, "skipped_ew"),
	}
	run := []tensor.Op{tensor.NewGEMM(64, 32, 128, "run_gemm"), tensor.NewElementwise(2048, 2, "run_ew")}
	blocks := []tensor.Block{{Ops: skipped, Repeat: 0}, {Ops: run, Repeat: 3}, {Ops: skipped, Repeat: -4}}

	p, bd := profileOps(s, blocks, 4, 9, true), breakdownOps(s, blocks)
	want, wantBD := referenceProfile(s, tensor.Flatten(blocks), 4, 9, true)
	if !reflect.DeepEqual(p, want) {
		t.Fatal("profile with skipped blocks differs from the reference")
	}
	if !reflect.DeepEqual(bd, wantBD) {
		t.Fatal("breakdown with skipped blocks differs from the reference")
	}
	if p.NumKernels != 6 {
		t.Errorf("NumKernels = %d, want 6 (two ops launched three times)", p.NumKernels)
	}
	if len(p.TunedShapes) != 1 || p.TunedShapes[0].Signature != run[0].Signature() {
		t.Errorf("tuned shapes = %+v, want only %s", p.TunedShapes, run[0].Signature())
	}
	for label := range bd.LabelTimeUS {
		if label != "run_gemm" && label != "run_ew" {
			t.Errorf("label %q of a skipped block was recorded", label)
		}
	}
	for _, ks := range bd.Kernels {
		if ks.Count <= 0 {
			t.Errorf("kernel %s recorded with %d launches", ks.Kernel, ks.Count)
		}
	}

	none := []tensor.Block{{Ops: skipped, Repeat: 0}, {Ops: skipped, Repeat: -1}}
	empty, emptyBD := profileOps(s, none, 4, 9, true), breakdownOps(s, none)
	if empty.TimeUS != 0 || empty.NumKernels != 0 || empty.TunedShapes != nil ||
		len(emptyBD.Kernels) != 0 || len(emptyBD.LabelTimeUS) != 0 {
		t.Errorf("blocks that launch nothing produced %+v and %+v", empty, emptyBD)
	}
}
