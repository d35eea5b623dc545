package tensor

import (
	"fmt"
	"strconv"
)

// Elementwise is a pointwise map over Elems elements performing
// OpsPerElem floating-point operations each (sigmoid/tanh gate math,
// bias adds, ReLU, batch-norm application, dropout masks, ...).
type Elementwise struct {
	Elems      int
	OpsPerElem int
	Label      string
}

// NewElementwise constructs a pointwise op.
func NewElementwise(elems, opsPerElem int, label string) Elementwise {
	if elems <= 0 || opsPerElem <= 0 {
		panic(fmt.Sprintf("tensor: invalid elementwise %d elems x %d ops", elems, opsPerElem))
	}
	return Elementwise{Elems: elems, OpsPerElem: opsPerElem, Label: label}
}

// Kind reports KindElementwise.
func (e Elementwise) Kind() Kind { return KindElementwise }

// FLOPs is Elems * OpsPerElem.
func (e Elementwise) FLOPs() float64 { return float64(e.Elems) * float64(e.OpsPerElem) }

// BytesRead assumes one streaming read of the operand.
func (e Elementwise) BytesRead() float64 { return float64(e.Elems) * ElemSize }

// BytesWritten assumes one streaming write of the result.
func (e Elementwise) BytesWritten() float64 { return float64(e.Elems) * ElemSize }

// WorkingSet is zero: streaming kernels have no reuse to capture.
func (e Elementwise) WorkingSet() float64 { return 0 }

// Signature buckets by label and element count; pointwise kernels are
// shape-agnostic beyond their launch geometry.
func (e Elementwise) Signature() string {
	return "ew:" + e.Label + ":" + strconv.Itoa(e.Elems)
}

// Reduction folds Elems elements down to Groups results (softmax row
// maxima/sums, batch-norm statistics, loss sums).
type Reduction struct {
	Elems  int
	Groups int
	Label  string
}

// NewReduction constructs a reduction op.
func NewReduction(elems, groups int, label string) Reduction {
	if elems <= 0 || groups <= 0 || groups > elems {
		panic(fmt.Sprintf("tensor: invalid reduction %d elems -> %d groups", elems, groups))
	}
	return Reduction{Elems: elems, Groups: groups, Label: label}
}

// Kind reports KindReduction.
func (r Reduction) Kind() Kind { return KindReduction }

// FLOPs is one op per element folded.
func (r Reduction) FLOPs() float64 { return float64(r.Elems) }

// BytesRead streams the input once.
func (r Reduction) BytesRead() float64 { return float64(r.Elems) * ElemSize }

// BytesWritten stores one value per group.
func (r Reduction) BytesWritten() float64 { return float64(r.Groups) * ElemSize }

// WorkingSet is zero: reductions stream.
func (r Reduction) WorkingSet() float64 { return 0 }

// Signature buckets by label and size.
func (r Reduction) Signature() string {
	return "red:" + r.Label + ":" + strconv.Itoa(r.Elems)
}

// Embedding is a gather of Lookups rows of width Dim from a table of
// Rows rows. Per the paper's key observation 6, the vocabulary size
// (Rows) materially affects iteration time, so the table size must be
// kept at the full dataset vocabulary when sampling iterations.
type Embedding struct {
	Rows, Dim, Lookups int
	Label              string
}

// NewEmbedding constructs an embedding-lookup op.
func NewEmbedding(rows, dim, lookups int, label string) Embedding {
	if rows <= 0 || dim <= 0 || lookups <= 0 {
		panic(fmt.Sprintf("tensor: invalid embedding %dx%d with %d lookups", rows, dim, lookups))
	}
	return Embedding{Rows: rows, Dim: dim, Lookups: lookups, Label: label}
}

// Kind reports KindEmbedding.
func (e Embedding) Kind() Kind { return KindEmbedding }

// FLOPs is nominal: one op per gathered element (index arithmetic).
func (e Embedding) FLOPs() float64 { return float64(e.Lookups) * float64(e.Dim) }

// BytesRead covers the gathered rows plus index traffic; gathers into a
// large table are scatter reads, so no row coalescing is assumed.
func (e Embedding) BytesRead() float64 {
	return float64(e.Lookups)*float64(e.Dim)*ElemSize + float64(e.Lookups)*ElemSize
}

// BytesWritten covers the packed output rows.
func (e Embedding) BytesWritten() float64 {
	return float64(e.Lookups) * float64(e.Dim) * ElemSize
}

// WorkingSet is the table size: bigger vocabularies thrash caches, which
// is how the vocabulary-size effect (key observation 6) enters the model.
func (e Embedding) WorkingSet() float64 {
	return float64(e.Rows) * float64(e.Dim) * ElemSize
}

// Signature buckets by table geometry and lookup count.
func (e Embedding) Signature() string {
	return "emb:" + e.Label + ":" + strconv.Itoa(e.Rows) + "x" + strconv.Itoa(e.Dim) + ":" + strconv.Itoa(e.Lookups)
}
