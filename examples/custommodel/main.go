// custommodel applies SeqPoint to a user-defined network — a small
// Transformer-style encoder classifier built from the public layer
// library — demonstrating the paper's Section VII-B claim: any network
// whose computation varies with input sequence length benefits from the
// methodology, not just the two evaluated SQNNs.
//
// Run with: go run ./examples/custommodel
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"seqpoint"
)

const (
	hidden  = 512
	vocab   = 12000
	classes = 5
	blocks  = 4
)

// buildTransformer returns the layer stack for an iteration whose padded
// input is seqLen symbols: an embedding, `blocks` attention+feedforward
// blocks (attention spans the whole input, so each block's work is
// O(T^2) — even more SL-sensitive than an RNN), and a classifier head.
func buildTransformer(seqLen int) []seqpoint.Layer {
	layers := []seqpoint.Layer{
		seqpoint.NewEmbeddingLayer("embed", vocab, hidden),
	}
	for b := 0; b < blocks; b++ {
		layers = append(layers,
			seqpoint.NewAttention(fmt.Sprintf("selfattn_%d", b), hidden, seqLen),
			seqpoint.NewDense(fmt.Sprintf("ffn_%d_up", b), 4*hidden, true),
			seqpoint.NewDense(fmt.Sprintf("ffn_%d_down", b), hidden, false),
		)
	}
	return append(layers,
		seqpoint.NewDense("classifier", classes, false),
		seqpoint.NewSoftmax("softmax"),
	)
}

func main() {
	model, err := seqpoint.NewCustomModel(
		"mini-transformer",
		25_000_000,
		func(batch, seqLen int) seqpoint.Activation {
			return seqpoint.Activation{Batch: batch, Time: seqLen, Feat: hidden}
		},
		buildTransformer,
	)
	if err != nil {
		log.Fatal(err)
	}

	// A synthetic review-classification corpus: short-dominated lengths.
	rng := rand.New(rand.NewSource(3))
	lengths := make([]int, 6144)
	for i := range lengths {
		l := 4 + int(rng.ExpFloat64()*30)
		if l > 256 {
			l = 256
		}
		lengths[i] = l
	}
	train, err := seqpoint.Synthetic("reviews", lengths, vocab)
	if err != nil {
		log.Fatal(err)
	}

	spec := seqpoint.Spec{
		Model:    model,
		Train:    train,
		Batch:    32,
		Epochs:   1,
		Schedule: seqpoint.GNMTSchedule(), // bucket-pooled NMT-style batching
		Seed:     3,
	}
	cfgs := seqpoint.TableII()

	calib, err := seqpoint.Simulate(spec, cfgs[0])
	if err != nil {
		log.Fatal(err)
	}
	recs, err := seqpoint.RecordsFromRun(calib, 0)
	if err != nil {
		log.Fatal(err)
	}
	sel, err := seqpoint.Select(recs, seqpoint.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d iterations/epoch, %d unique SLs -> %d SeqPoints "+
		"(self error %.2f%%)\n\n",
		model.Name(), calib.EpochPlans[0].Iterations(), len(recs),
		len(sel.Points), sel.ErrorPct)

	// Attention makes iteration cost super-linear in SL; SeqPoint's
	// binning handles that as long as nearby SLs stay similar.
	fmt.Printf("%8s %10s %14s\n", "seqpoint", "weight", "iter runtime")
	for _, p := range sel.Points {
		fmt.Printf("%8d %10.0f %12.1fms\n", p.SeqLen, p.Weight, p.Stat/1e3)
	}

	// Cross-config check against a full run on config #2.
	target := cfgs[1]
	sim, err := seqpoint.NewSimulator(target)
	if err != nil {
		log.Fatal(err)
	}
	times := map[int]float64{}
	for _, p := range sel.Points {
		prof, err := seqpoint.ProfileIteration(sim, model, spec.Batch, p.SeqLen)
		if err != nil {
			log.Fatal(err)
		}
		times[p.SeqLen] = prof.TimeUS
	}
	proj, err := seqpoint.ProjectTotal(sel.Points, times)
	if err != nil {
		log.Fatal(err)
	}
	truth, err := seqpoint.Simulate(spec, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconfig %s projection: %.2f s vs actual %.2f s (error %.2f%%) "+
		"from %d profiled iterations\n",
		target.Name, proj/1e6, truth.TrainUS/1e6,
		math.Abs(proj-truth.TrainUS)/truth.TrainUS*100, len(sel.Points))
}
