package gpusim

import (
	"fmt"
	"strings"
	"testing"

	"seqpoint/internal/tensor"
)

// referenceKernelName is KernelName as it was written with fmt, before
// names were built by concatenation on the pricing hot path.
func referenceKernelName(op tensor.Op) string {
	switch o := op.(type) {
	case tensor.GEMM:
		t := selectGEMMTile(o.M, o.N)
		name := fmt.Sprintf("Cijk_gemm_MT%dx%d_DU%d", t.tm, t.tn, depthU(o.K))
		if o.M < 32 || o.N < 32 {
			name += "_skinny"
		}
		if gsu := globalSplitK(o, t); gsu > 1 {
			name += fmt.Sprintf("_GSU%d", gsu)
		}
		return name
	case tensor.Conv2D:
		if o.KH <= 3 && o.KW <= 3 && o.SH == 1 && o.SW == 1 {
			return fmt.Sprintf("miopen_winograd_k%dx%d", o.KH, o.KW)
		}
		return fmt.Sprintf("miopen_igemm_k%dx%d_s%dx%d", o.KH, o.KW, o.SH, o.SW)
	case tensor.Elementwise:
		vec := 1
		if o.Elems%4 == 0 {
			vec = 4
		}
		flavor := kernelFlavor(o.Label)
		name := fmt.Sprintf("ew_%s_v%d", flavor, vec)
		if class, ok := launchSizeClass(flavor, o.Elems); ok {
			name += fmt.Sprintf("_g%d", class)
		}
		return name
	case tensor.Reduction:
		fan := 256
		if o.Elems/o.Groups < 256 {
			fan = 64
		}
		flavor := kernelFlavor(o.Label)
		name := fmt.Sprintf("reduce_%s_f%d", flavor, fan)
		if class, ok := launchSizeClass(flavor, o.Elems); ok {
			name += fmt.Sprintf("_g%d", class)
		}
		return name
	case tensor.Embedding:
		return fmt.Sprintf("gather_%s", kernelFlavor(o.Label))
	default:
		return fmt.Sprintf("kernel_%s", op.Kind())
	}
}

// customKindOp is an op type gpusim does not know, named by its kind.
type customKindOp struct{ tensor.GEMM }

func (customKindOp) Kind() tensor.Kind { return tensor.KindReduction }

// TestKernelNameMatchesFormatted checks KernelName against the fmt
// reference over a grid that reaches every variant: all six GEMM tiles,
// skinny, GSU, DU16 and DU8; winograd and implicit-GEMM convolutions;
// elementwise and reduction kernels with and without a size class and
// both reduction fan-ins; embeddings; and an unknown op type.
func TestKernelNameMatchesFormatted(t *testing.T) {
	var ops []tensor.Op
	dims := []int{1, 16, 29, 31, 32, 48, 64, 100, 128, 256, 640, 1024, 4096, 25728, 36549}
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range []int{7, 64, 256, 1000, 1024, 4096} {
				ops = append(ops, tensor.NewGEMM(m, n, k, "g"))
			}
		}
	}
	ops = append(ops,
		tensor.NewConv2D(8, 64, 32, 32, 64, 3, 3, 1, 1, 1, 1, "conv1"),
		tensor.NewConv2D(64, 1, 161, 400, 32, 41, 11, 2, 2, 20, 5, "conv1"),
		tensor.NewConv2D(64, 32, 81, 200, 32, 21, 11, 2, 1, 10, 5, "conv2"),
		tensor.NewEmbedding(36549, 1024, 640, "src_embed"),
		customKindOp{tensor.NewGEMM(8, 8, 8, "x")},
	)
	labels := []string{"alpha", "beta", "gamma", "delta", "score", "gates", "gru_3_d1_gates",
		"softmax_max", "ctc_norm", "bn_stats", "attention_vdot", "ln1_stats", "concat", "gnmt_sgd"}
	for _, label := range labels {
		for _, elems := range []int{1, 7, 1024, 100000, 1 << 24} {
			ops = append(ops, tensor.NewElementwise(elems, 4, label))
			ops = append(ops, tensor.NewReduction(elems, 1, label))
			ops = append(ops, tensor.NewReduction(elems, elems, label))
		}
	}

	seen := make(map[string]bool)
	for _, op := range ops {
		got, want := KernelName(op), referenceKernelName(op)
		if got != want {
			t.Fatalf("KernelName(%s) = %q, want %q", op.Signature(), got, want)
		}
		for _, part := range []string{"_skinny", "_GSU", "_DU16", "_DU8", "winograd", "igemm",
			"gather_", "kernel_", "_f64", "_f256"} {
			if strings.Contains(got, part) {
				seen[part] = true
			}
		}
		if g, ok := op.(tensor.GEMM); ok {
			tile := selectGEMMTile(g.M, g.N)
			seen[fmt.Sprintf("MT%dx%d", tile.tm, tile.tn)] = true
		}
		if strings.HasPrefix(got, "ew_") || strings.HasPrefix(got, "reduce_") {
			seen[got[:strings.IndexByte(got, '_')]+fmt.Sprint(strings.Contains(got, "_g"))] = true
		}
	}
	for _, tile := range gemmTiles {
		if name := fmt.Sprintf("MT%dx%d", tile.tm, tile.tn); !seen[name] {
			t.Errorf("grid never dispatches GEMM tile %s", name)
		}
	}
	for _, part := range []string{"_skinny", "_GSU", "_DU16", "_DU8", "winograd", "igemm", "gather_",
		"kernel_", "_f64", "_f256", "ewtrue", "ewfalse", "reducetrue", "reducefalse"} {
		if !seen[part] {
			t.Errorf("grid never reaches the %q variant", part)
		}
	}
}
