package gpusim

import (
	"strconv"

	"seqpoint/internal/tensor"
)

// gemmTile is one size-specialized GEMM kernel variant, mirroring how
// rocBLAS ships a family of macro-tile kernels and dispatches on shape.
// Because the dispatched variant depends on (M, N, K), iterations with
// different sequence lengths invoke different concrete kernels — the
// effect the paper's Fig. 5 measures.
type gemmTile struct {
	tm, tn int
	// eff is the intrinsic arithmetic efficiency of the variant when the
	// GPU is fully occupied: larger tiles amortize more and run closer
	// to peak.
	eff float64
}

// gemmTiles is ordered from largest to smallest macro-tile.
var gemmTiles = []gemmTile{
	{128, 128, 0.88},
	{128, 64, 0.84},
	{64, 64, 0.80},
	{64, 32, 0.72},
	{32, 32, 0.62},
	{16, 16, 0.45},
}

// wavesPerCUForFullOccupancy is how many concurrent tiles a CU wants in
// flight to hide latency; fewer tiles than NumCUs*this leaves the GPU
// partially idle.
const wavesPerCUForFullOccupancy = 2

// selectGEMMTile picks the kernel variant a BLAS library would dispatch
// for an MxNxK GEMM. Selection is configuration-independent (it uses the
// reference 64-CU occupancy), matching the paper's setup where all five
// Table II configs are the same chip and therefore dispatch identically:
// the SeqPoints identified on config #1 execute the same kernels on #2-#5.
func selectGEMMTile(m, n int) gemmTile {
	best := gemmTiles[len(gemmTiles)-1]
	bestScore := -1.0
	for _, t := range gemmTiles {
		tiles := ceilDiv(m, t.tm) * ceilDiv(n, t.tn)
		occ := minF(1, float64(tiles)/float64(referenceCUs*wavesPerCUForFullOccupancy))
		// Padding waste: fraction of the tile grid doing real work.
		cover := (float64(m) / float64(ceilDiv(m, t.tm)*t.tm)) *
			(float64(n) / float64(ceilDiv(n, t.tn)*t.tn))
		score := occ * cover * t.eff
		if score > bestScore {
			bestScore = score
			best = t
		}
	}
	return best
}

// depthU is the K-dimension unroll depth a Tensile-style GEMM kernel is
// compiled with: deep, 16-aligned K dimensions take the DU16 variant.
// Because attention's context GEMM has K equal to the encoder sequence
// length, the dispatched variant flips with SL — one of the mechanisms
// behind the paper's Fig. 5 only-in-one-iteration kernels.
func depthU(k int) int {
	if k >= 256 && k%16 == 0 {
		return 16
	}
	return 8
}

// globalSplitK returns the split-K factor a BLAS library applies when a
// GEMM's output grid is too small to fill the GPU but its K dimension is
// deep: the K loop is split across extra workgroups and reduced at the
// end. Returns 1 when no split is used.
func globalSplitK(o tensor.GEMM, t gemmTile) int {
	tiles := ceilDiv(o.M, t.tm) * ceilDiv(o.N, t.tn)
	if tiles < referenceCUs && o.K >= 1024 {
		return 4
	}
	return 1
}

// launchSizeClass buckets a kernel's element count into power-of-four
// launch-geometry classes. Some pointwise and reduction kernels in
// vendor libraries are compiled for a ladder of grid sizes (different
// unroll factors and workgroup counts) — for those, the class, not the
// exact size, picks the symbol; others are grid-stride loops with a
// single size-agnostic symbol. Which family a kernel falls in, and
// where its ladder boundaries sit, varies per kernel family — modeled
// here with a hash of the family name. The net effect matches what a
// real profiler sees (Figs 5 and 8): nearby sequence lengths share
// almost all kernels, distant ones differ in a minority of them.
func launchSizeClass(flavor string, elems int) (class int, specialized bool) {
	h := fnv32(flavor)
	if h&1 == 1 {
		return 0, false // size-agnostic grid-stride kernel
	}
	// log2 in half-steps so the per-family phase can shift boundaries
	// by fractions of an octave; buckets span eight half-steps (log16):
	// grid-size ladders are coarse, one template per ~16x size range.
	halfSteps := 0
	for e := elems; e > 1; e >>= 1 {
		halfSteps += 2
	}
	phase := int((h >> 1) % 8)
	return (halfSteps + phase) / 8, true
}

// fnv32 is the 32-bit FNV-1a hash (inlined to keep the package
// dependency-free and the hashing obviously deterministic).
func fnv32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// kernelFlavor canonicalizes a layer-level op label into the kernel
// flavor a vendor library actually ships: layer indices and direction
// suffixes are template-irrelevant, so "gru_3_d1_gates" and
// "gru_0_d0_gates" run the same symbol. Digits are stripped; the
// remaining role string identifies the kernel family.
func kernelFlavor(label string) string {
	out := make([]byte, 0, len(label))
	for i := 0; i < len(label); i++ {
		if label[i] >= '0' && label[i] <= '9' {
			continue
		}
		out = append(out, label[i])
	}
	return string(out)
}

// KernelName returns the concrete kernel a vendor library would run for
// the op. Names are stable across configurations (all Table II configs
// are the same chip, so dispatch is identical) and shaped like real
// library symbols, so profile comparisons (unique-kernel overlap,
// Fig. 5) behave as they do under a real profiler.
func KernelName(op tensor.Op) string {
	switch o := op.(type) {
	case tensor.GEMM:
		t := selectGEMMTile(o.M, o.N)
		name := "Cijk_gemm_MT" + strconv.Itoa(t.tm) + "x" + strconv.Itoa(t.tn) + "_DU" + strconv.Itoa(depthU(o.K))
		if o.M < 32 || o.N < 32 {
			name += "_skinny"
		}
		if gsu := globalSplitK(o, t); gsu > 1 {
			name += "_GSU" + strconv.Itoa(gsu)
		}
		return name
	case tensor.Conv2D:
		// MIOpen picks winograd for small 3x3-ish filters, implicit GEMM
		// otherwise; stride >1 rules winograd out.
		if o.KH <= 3 && o.KW <= 3 && o.SH == 1 && o.SW == 1 {
			return "miopen_winograd_k" + strconv.Itoa(o.KH) + "x" + strconv.Itoa(o.KW)
		}
		return "miopen_igemm_k" + strconv.Itoa(o.KH) + "x" + strconv.Itoa(o.KW) +
			"_s" + strconv.Itoa(o.SH) + "x" + strconv.Itoa(o.SW)
	case tensor.Elementwise:
		// Pointwise kernels specialize on vector width (whether the
		// element count allows float4 accesses) and launch-size class.
		vec := 1
		if o.Elems%4 == 0 {
			vec = 4
		}
		flavor := kernelFlavor(o.Label)
		name := "ew_" + flavor + "_v" + strconv.Itoa(vec)
		if class, ok := launchSizeClass(flavor, o.Elems); ok {
			name += "_g" + strconv.Itoa(class)
		}
		return name
	case tensor.Reduction:
		// Reductions pick a tree fan-in from the group size and a grid
		// geometry from the input size.
		fan := 256
		if o.Elems/o.Groups < 256 {
			fan = 64
		}
		flavor := kernelFlavor(o.Label)
		name := "reduce_" + flavor + "_f" + strconv.Itoa(fan)
		if class, ok := launchSizeClass(flavor, o.Elems); ok {
			name += "_g" + strconv.Itoa(class)
		}
		return name
	case tensor.Embedding:
		return "gather_" + kernelFlavor(o.Label)
	default:
		return "kernel_" + op.Kind().String()
	}
}

// waveQuantizedOccupancy is the utilization of a GPU with `capacity`
// concurrent tile slots executing `tiles` tiles: the grid runs in
// ceil(tiles/capacity) full waves, and the trailing partial wave idles
// the remainder of the machine. This classic wave-quantization effect is
// what makes kernel efficiency — and therefore the speedup from changing
// clock, CU count, or caches — vary with the kernel's exact shape, i.e.
// with the iteration's sequence length (the behaviour of the paper's
// Figs 13 and 14).
func waveQuantizedOccupancy(tiles, capacity int) float64 {
	if tiles <= 0 || capacity <= 0 {
		return 0
	}
	waves := ceilDiv(tiles, capacity)
	return float64(tiles) / float64(waves*capacity)
}

// gemmEfficiency is the fraction of peak FLOP/s an MxNxK GEMM achieves
// on cfg: intrinsic tile efficiency, scaled by wave-quantized occupancy
// and grid coverage. Occupancy uses the actual CU count, which is how
// config #3 (16 CUs) hurts differently-shaped GEMMs by different
// factors, while the K-dimension depth is irrelevant to fill.
func gemmEfficiency(o tensor.GEMM, cfg Config) float64 {
	t := selectGEMMTile(o.M, o.N)
	tiles := ceilDiv(o.M, t.tm) * ceilDiv(o.N, t.tn)
	occ := waveQuantizedOccupancy(tiles, cfg.NumCUs*wavesPerCUForFullOccupancy)
	cover := (float64(o.M) / float64(ceilDiv(o.M, t.tm)*t.tm)) *
		(float64(o.N) / float64(ceilDiv(o.N, t.tn)*t.tn))
	// Very shallow K cannot keep the FMA pipeline busy within a tile.
	depth := minF(1, float64(o.K)/64)
	return t.eff * occ * cover * (0.5 + 0.5*depth)
}

// convEfficiency mirrors gemmEfficiency for convolutions: winograd is
// efficient, strided implicit GEMM less so, and the output grid fills
// the machine in quantized waves.
func convEfficiency(o tensor.Conv2D, cfg Config) float64 {
	intrinsic := 0.55
	if o.KH <= 3 && o.KW <= 3 && o.SH == 1 && o.SW == 1 {
		intrinsic = 0.75
	}
	// One conv work-group covers a tile of the output grid.
	const outputsPerWorkgroup = 64 * 8
	tiles := ceilDiv(o.N*o.OutC*o.OutH()*o.OutW(), outputsPerWorkgroup)
	occ := waveQuantizedOccupancy(tiles, cfg.NumCUs*wavesPerCUForFullOccupancy)
	return intrinsic * occ
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
