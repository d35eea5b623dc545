package profiler

import (
	"encoding/json"
	"fmt"
	"io"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/tensor"
)

// TraceIteration returns the raw kernel-invocation stream of one
// training iteration — the unaggregated equivalent of a Radeon Compute
// Profiler trace, with each kernel's modeled start time assuming
// back-to-back execution on one queue.
func TraceIteration(sim *gpusim.Simulator, m models.Model, batch, seqLen int) ([]gpusim.Invocation, error) {
	if batch <= 0 || seqLen <= 0 {
		return nil, fmt.Errorf("profiler: invalid iteration batch=%d seqLen=%d", batch, seqLen)
	}
	ops := tensor.Flatten(m.IterationBlocks(batch, seqLen))
	invs := make([]gpusim.Invocation, len(ops))
	for i, op := range ops {
		invs[i] = sim.Price(op)
	}
	return invs, nil
}

// traceEvent is one Chrome trace-event ("traceEvents" array element) in
// the complete-event ("X") form.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// traceFile is the Chrome trace-event JSON envelope.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	DisplayUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace serializes a kernel-invocation stream as a Chrome
// trace-event JSON file (loadable in chrome://tracing or Perfetto),
// laying the kernels back to back on a single GPU-queue track. This is
// the format real profiling workflows around the paper's tooling
// exchange, and makes the simulated iterations visually inspectable.
func WriteChromeTrace(w io.Writer, invs []gpusim.Invocation) error {
	tf := traceFile{DisplayUnit: "ms", TraceEvents: make([]traceEvent, 0, len(invs))}
	var cursor float64
	for _, inv := range invs {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: inv.Kernel,
			Cat:  inv.Kind.String(),
			Ph:   "X",
			TS:   cursor,
			Dur:  inv.TimeUS,
			PID:  0,
			TID:  0,
			Args: map[string]string{
				"signature": inv.Signature,
				"label":     inv.Label,
			},
		})
		cursor += inv.TimeUS
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}
