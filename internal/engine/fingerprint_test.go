package engine

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"seqpoint/internal/models"
	"seqpoint/internal/nn"
	"seqpoint/internal/tensor"
)

// referenceFingerprint is the flat-stream hash Fingerprint computed
// when models returned one op per launch: every launch of the train and
// eval streams at both probe shapes, one at a time, in launch order.
func referenceFingerprint(m models.Model) uint64 {
	h := fnv.New64a()
	io.WriteString(h, m.Name())
	var buf [8]byte
	hashOp := func(op tensor.Op) {
		io.WriteString(h, op.Signature())
		for _, f := range []float64{op.FLOPs(), op.BytesRead(), op.BytesWritten()} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
	}
	hashLaunches := func(blocks []tensor.Block) {
		for _, b := range blocks {
			for r := 0; r < b.Repeat; r++ {
				for _, op := range b.Ops {
					hashOp(op)
				}
			}
		}
	}
	for _, probe := range [][2]int{{2, 3}, {2, 7}} {
		hashLaunches(m.IterationBlocks(probe[0], probe[1]))
		io.WriteString(h, "|eval|")
		hashLaunches(m.EvalBlocks(probe[0], probe[1]))
		io.WriteString(h, "|probe|")
	}
	return h.Sum64()
}

// TestFingerprintUnchangedByBlocks pins every fingerprint to the flat
// stream it was hashed from before models emitted blocks. The literal
// values were computed from the flat op streams of the previous model
// code: they key every cache entry and every snapshot on disk, so a
// change here would turn every persisted profile into a miss.
func TestFingerprintUnchangedByBlocks(t *testing.T) {
	custom, err := models.NewCustom("custom-mix", 2_000_000,
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
	for _, tc := range []struct {
		m    models.Model
		want uint64
	}{
		{models.NewDS2(), 0xcd2fa31b352ebdc9},
		{models.NewGNMT(), 0x9f826e694c1411b4},
		{models.NewTransformer(), 0x96a3900a2e664d6},
		{models.NewSeq2Seq(), 0xc2792d3e14daf115},
		{models.NewCNN(), 0xf63649c987fcf3b8},
		{custom, 0x3aa93edc68d49533},
	} {
		got := Fingerprint(tc.m)
		if ref := referenceFingerprint(tc.m); got != ref {
			t.Errorf("%s: Fingerprint %#x, flat-stream reference %#x", tc.m.Name(), got, ref)
		}
		if got != tc.want {
			t.Errorf("%s: Fingerprint %#x, want the flat-stream value %#x", tc.m.Name(), got, tc.want)
		}
	}
}
