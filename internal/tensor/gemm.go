package tensor

import (
	"fmt"
	"strconv"
)

// GEMM is a dense matrix multiply C[M,N] = A[M,K] x B[K,N] (+ C).
// Label carries the layer-level role (e.g. "lstm_input", "attention_score",
// "classifier") so experiment code can group kernels the way the paper's
// Fig. 6 groups "GEMM-1"/"GEMM-2".
type GEMM struct {
	M, N, K int
	Label   string
}

// NewGEMM constructs a GEMM op. Dimensions must be positive.
func NewGEMM(m, n, k int, label string) GEMM {
	if m <= 0 || n <= 0 || k <= 0 {
		panic(fmt.Sprintf("tensor: invalid GEMM dims %dx%dx%d", m, n, k))
	}
	return GEMM{M: m, N: n, K: k, Label: label}
}

// Kind reports KindGEMM.
func (g GEMM) Kind() Kind { return KindGEMM }

// FLOPs is 2*M*N*K (one multiply and one add per inner-product term).
func (g GEMM) FLOPs() float64 {
	return 2 * float64(g.M) * float64(g.N) * float64(g.K)
}

// BytesRead covers one pass over A, B, and the C accumulator.
func (g GEMM) BytesRead() float64 {
	a := float64(g.M) * float64(g.K)
	b := float64(g.K) * float64(g.N)
	c := float64(g.M) * float64(g.N)
	return (a + b + c) * ElemSize
}

// BytesWritten covers the C output.
func (g GEMM) BytesWritten() float64 {
	return float64(g.M) * float64(g.N) * ElemSize
}

// WorkingSet is the full operand footprint: A + B + C. Blocked GEMMs
// revisit all three while streaming tiles, so the whole footprint is the
// quantity that must fit in cache for reuse to be captured.
func (g GEMM) WorkingSet() float64 {
	return g.BytesRead()
}

// Signature encodes the exact shape, which is what a BLAS library keys
// its dispatch (and autotuning) on.
func (g GEMM) Signature() string {
	return "gemm:" + strconv.Itoa(g.M) + "x" + strconv.Itoa(g.N) + "x" + strconv.Itoa(g.K)
}

// Conv2D is a 2-D convolution over an N x C x H x W input with OutC
// filters of size KH x KW, stride (SH, SW) and padding (PH, PW).
// DS2's two front-end layers are the only users, but the op supports the
// CNN model used for the Fig. 3 contrast as well.
type Conv2D struct {
	N, C, H, W     int
	OutC, KH, KW   int
	SH, SW, PH, PW int
	Label          string
}

// NewConv2D constructs a convolution op and validates its geometry.
func NewConv2D(n, c, h, w, outC, kh, kw, sh, sw, ph, pw int, label string) Conv2D {
	cv := Conv2D{N: n, C: c, H: h, W: w, OutC: outC, KH: kh, KW: kw, SH: sh, SW: sw, PH: ph, PW: pw, Label: label}
	if n <= 0 || c <= 0 || h <= 0 || w <= 0 || outC <= 0 || kh <= 0 || kw <= 0 || sh <= 0 || sw <= 0 {
		panic(fmt.Sprintf("tensor: invalid conv %+v", cv))
	}
	if cv.OutH() <= 0 || cv.OutW() <= 0 {
		panic(fmt.Sprintf("tensor: conv output collapses to zero: %+v", cv))
	}
	return cv
}

// OutH is the output height.
func (c Conv2D) OutH() int { return (c.H+2*c.PH-c.KH)/c.SH + 1 }

// OutW is the output width.
func (c Conv2D) OutW() int { return (c.W+2*c.PW-c.KW)/c.SW + 1 }

// Kind reports KindConv2D.
func (c Conv2D) Kind() Kind { return KindConv2D }

// FLOPs is 2 * N * OutC * OutH * OutW * C * KH * KW.
func (c Conv2D) FLOPs() float64 {
	return 2 * float64(c.N) * float64(c.OutC) * float64(c.OutH()) * float64(c.OutW()) *
		float64(c.C) * float64(c.KH) * float64(c.KW)
}

// BytesRead covers the input activation and the filter tensor.
func (c Conv2D) BytesRead() float64 {
	in := float64(c.N) * float64(c.C) * float64(c.H) * float64(c.W)
	filt := float64(c.OutC) * float64(c.C) * float64(c.KH) * float64(c.KW)
	return (in + filt) * ElemSize
}

// BytesWritten covers the output activation.
func (c Conv2D) BytesWritten() float64 {
	return float64(c.N) * float64(c.OutC) * float64(c.OutH()) * float64(c.OutW()) * ElemSize
}

// WorkingSet is the filter tensor plus one input tile band; filters are
// the heavily reused operand in convolution.
func (c Conv2D) WorkingSet() float64 {
	filt := float64(c.OutC) * float64(c.C) * float64(c.KH) * float64(c.KW)
	band := float64(c.C) * float64(c.KH) * float64(c.W)
	return (filt + band) * ElemSize
}

// Signature encodes the full convolution geometry, which is what MIOpen
// autotunes per shape.
func (c Conv2D) Signature() string {
	return "conv:n" + strconv.Itoa(c.N) + "_c" + strconv.Itoa(c.C) +
		"_h" + strconv.Itoa(c.H) + "_w" + strconv.Itoa(c.W) + "_k" + strconv.Itoa(c.OutC) +
		"_r" + strconv.Itoa(c.KH) + "_s" + strconv.Itoa(c.KW) +
		"_u" + strconv.Itoa(c.SH) + "_v" + strconv.Itoa(c.SW)
}
