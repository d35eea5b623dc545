package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGEMMFLOPs(t *testing.T) {
	g := NewGEMM(10, 20, 30, "x")
	if got, want := g.FLOPs(), 2.0*10*20*30; got != want {
		t.Errorf("FLOPs = %v, want %v", got, want)
	}
}

func TestGEMMBytes(t *testing.T) {
	g := NewGEMM(2, 3, 4, "x")
	wantRead := float64(2*4+4*3+2*3) * ElemSize
	if got := g.BytesRead(); got != wantRead {
		t.Errorf("BytesRead = %v, want %v", got, wantRead)
	}
	if got, want := g.BytesWritten(), float64(2*3)*ElemSize; got != want {
		t.Errorf("BytesWritten = %v, want %v", got, want)
	}
	if g.WorkingSet() != g.BytesRead() {
		t.Errorf("WorkingSet = %v, want full operand footprint %v", g.WorkingSet(), g.BytesRead())
	}
}

func TestGEMMSignatureAndKind(t *testing.T) {
	g := NewGEMM(1, 2, 3, "label-ignored")
	if got := g.Signature(); got != "gemm:1x2x3" {
		t.Errorf("Signature = %q", got)
	}
	if g.Kind() != KindGEMM {
		t.Errorf("Kind = %v, want KindGEMM", g.Kind())
	}
	// Signatures ignore the label: same shape, same dispatch.
	g2 := NewGEMM(1, 2, 3, "other")
	if g.Signature() != g2.Signature() {
		t.Error("signatures should not depend on labels")
	}
}

func TestGEMMInvalidPanics(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGEMM(%v) should panic", dims)
				}
			}()
			NewGEMM(dims[0], dims[1], dims[2], "bad")
		}()
	}
}

func TestConv2DGeometry(t *testing.T) {
	// DS2's first conv: 41x11 kernel, stride 2x2, pad 20x5 over 161xT.
	c := NewConv2D(64, 1, 161, 500, 32, 41, 11, 2, 2, 20, 5, "conv1")
	if got, want := c.OutH(), (161+40-41)/2+1; got != want {
		t.Errorf("OutH = %d, want %d", got, want)
	}
	if got, want := c.OutW(), (500+10-11)/2+1; got != want {
		t.Errorf("OutW = %d, want %d", got, want)
	}
	if c.Kind() != KindConv2D {
		t.Errorf("Kind = %v", c.Kind())
	}
}

func TestConv2DFLOPsScaleWithWidth(t *testing.T) {
	mk := func(w int) Conv2D {
		return NewConv2D(1, 3, 32, w, 8, 3, 3, 1, 1, 1, 1, "c")
	}
	f100, f200 := mk(100).FLOPs(), mk(200).FLOPs()
	ratio := f200 / f100
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("doubling width should ~double FLOPs, ratio = %v", ratio)
	}
}

func TestConv2DInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("collapsing output should panic")
		}
	}()
	NewConv2D(1, 1, 2, 2, 1, 5, 5, 1, 1, 0, 0, "tiny") // 2x2 input, 5x5 filter, no pad
}

func TestElementwise(t *testing.T) {
	e := NewElementwise(100, 4, "act")
	if got := e.FLOPs(); got != 400 {
		t.Errorf("FLOPs = %v, want 400", got)
	}
	if got := e.BytesRead(); got != 100*ElemSize {
		t.Errorf("BytesRead = %v", got)
	}
	if e.WorkingSet() != 0 {
		t.Error("streaming kernels have no working set")
	}
	if !strings.Contains(e.Signature(), "act") {
		t.Errorf("Signature should carry the label: %q", e.Signature())
	}
}

func TestReduction(t *testing.T) {
	r := NewReduction(1000, 10, "sum")
	if r.FLOPs() != 1000 {
		t.Errorf("FLOPs = %v", r.FLOPs())
	}
	if got := r.BytesWritten(); got != 10*ElemSize {
		t.Errorf("BytesWritten = %v, want one value per group", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("groups > elems should panic")
			}
		}()
		NewReduction(5, 10, "bad")
	}()
}

func TestEmbedding(t *testing.T) {
	e := NewEmbedding(36549, 1024, 64, "vocab")
	if got, want := e.WorkingSet(), float64(36549*1024)*ElemSize; got != want {
		t.Errorf("WorkingSet = %v, want full table %v", got, want)
	}
	if got, want := e.BytesWritten(), float64(64*1024)*ElemSize; got != want {
		t.Errorf("BytesWritten = %v, want %v", got, want)
	}
	if e.Kind() != KindEmbedding {
		t.Errorf("Kind = %v", e.Kind())
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindGEMM:        "gemm",
		KindConv2D:      "conv2d",
		KindElementwise: "elementwise",
		KindReduction:   "reduce",
		KindEmbedding:   "embedding",
		Kind(99):        "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestQuickOpCostsNonNegativeFinite(t *testing.T) {
	// Every op's cost quantities must be non-negative and finite for
	// the cost model to stay well-defined.
	check := func(op Op) bool {
		for _, v := range []float64{op.FLOPs(), op.BytesRead(), op.BytesWritten(), op.WorkingSet()} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return op.Signature() != ""
	}
	f := func(m, n, k uint16, elems uint16, ops uint8, rows uint16, dim uint8) bool {
		gm := NewGEMM(int(m)+1, int(n)+1, int(k)+1, "g")
		ew := NewElementwise(int(elems)+1, int(ops)+1, "e")
		red := NewReduction(int(elems)+1, 1, "r")
		emb := NewEmbedding(int(rows)+1, int(dim)+1, int(elems)+1, "m")
		return check(gm) && check(ew) && check(red) && check(emb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickGEMMFLOPsMonotonic(t *testing.T) {
	// Growing any dimension grows the arithmetic.
	f := func(m, n, k uint8, d uint8) bool {
		g := NewGEMM(int(m)+1, int(n)+1, int(k)+1, "g")
		bigger := NewGEMM(g.M+int(d)+1, g.N, g.K, "g")
		return bigger.FLOPs() > g.FLOPs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlattenLaunchOrder(t *testing.T) {
	a, b, c := NewGEMM(1, 2, 3, "a"), NewElementwise(4, 1, "b"), NewReduction(8, 2, "c")
	got := Flatten([]Block{
		{Ops: []Op{a}, Repeat: 1},
		{Ops: []Op{b, c}, Repeat: 3},
		{Ops: []Op{a, b}, Repeat: 0},
		{Ops: []Op{c}, Repeat: -2},
		{Ops: []Op{c, a}, Repeat: 1},
	})
	want := []Op{a, b, c, b, c, b, c, c, a}
	if len(got) != len(want) {
		t.Fatalf("Flatten launched %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("launch %d = %s, want %s", i, got[i].Signature(), want[i].Signature())
		}
	}
	if n := len(Flatten([]Block{{Ops: []Op{a}, Repeat: 0}, {Ops: []Op{b}, Repeat: -1}})); n != 0 {
		t.Errorf("blocks with Repeat <= 0 launched %d ops, want none", n)
	}
}

// TestSignaturesMatchFormatted pins every op signature, built by
// concatenation, to the fmt format it replaced: signatures key autotune
// and the engine fingerprint, so a byte of drift would re-key caches.
func TestSignaturesMatchFormatted(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{NewGEMM(4096, 2560, 1024, "enc_lstm_0_d1_xproj"), fmt.Sprintf("gemm:%dx%dx%d", 4096, 2560, 1024)},
		{NewGEMM(1, 7, 123456, ""), fmt.Sprintf("gemm:%dx%dx%d", 1, 7, 123456)},
		{NewConv2D(64, 1, 161, 400, 32, 41, 11, 2, 2, 20, 5, "conv1"),
			fmt.Sprintf("conv:n%d_c%d_h%d_w%d_k%d_r%d_s%d_u%d_v%d", 64, 1, 161, 400, 32, 41, 11, 2, 2)},
		{NewElementwise(3200*64, 12, "gru_3_d1_gates"), fmt.Sprintf("ew:%s:%d", "gru_3_d1_gates", 3200*64)},
		{NewElementwise(9, 1, ""), fmt.Sprintf("ew:%s:%d", "", 9)},
		{NewReduction(1024*50, 50, "softmax_max"), fmt.Sprintf("red:%s:%d", "softmax_max", 1024*50)},
		{NewEmbedding(36549, 1024, 64*40, "src_embed"), fmt.Sprintf("emb:%s:%dx%d:%d", "src_embed", 36549, 1024, 64*40)},
	}
	for _, tc := range cases {
		if got := tc.op.Signature(); got != tc.want {
			t.Errorf("%T signature = %q, want %q", tc.op, got, tc.want)
		}
	}
}
