package engine

import (
	"context"
	"sync"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/trainer"
)

// SweepTask is one cell of a (workload × config) grid: a training spec
// to simulate on a hardware configuration.
type SweepTask struct {
	// Name labels the task in results ("gnmt on #3").
	Name string
	// Spec is the training run to simulate.
	Spec trainer.Spec
	// Config is the hardware configuration to run it on.
	Config gpusim.Config
}

// SweepResult is the outcome of one sweep task.
type SweepResult struct {
	// Task is the task this result belongs to.
	Task SweepTask
	// Run is the simulated run; nil when Err is set.
	Run *trainer.Run
	// Err is the task's failure, or ctx.Err() for tasks not started
	// before cancellation.
	Err error
}

// Sweep simulates every task with at most `parallelism` concurrent
// runs (<= 0 uses the engine default) and returns the results in task
// order. Concurrent profile *computations* are additionally bounded
// engine-wide by Parallelism(), so nested fan-out (each run fanning
// its unique SLs out in turn) cannot oversubscribe the machine. All tasks share this engine's profile cache, so grid cells
// that revisit a (model, config, batch, SL) tuple — every cell of a
// multi-config sweep over one workload, for instance — profile it only
// once. Cancelling ctx stops unstarted tasks, which report ctx.Err();
// already-running simulations complete. Because each result is
// computed independently and slotted by task index, the output is
// identical at any parallelism.
func (e *Engine) Sweep(ctx context.Context, tasks []SweepTask, parallelism int) []SweepResult {
	results := make([]SweepResult, len(tasks))
	for i := range tasks {
		results[i].Task = tasks[i]
	}

	workers := parallelism
	if workers <= 0 {
		workers = e.Parallelism()
	}
	forEach(len(tasks), workers, func(i int) {
		if err := ctx.Err(); err != nil {
			results[i].Err = err
			return
		}
		results[i].Run, results[i].Err = e.Simulate(tasks[i].Spec, tasks[i].Config)
	})
	return results
}

// forEach calls fn(i) for every i in [0, n) on at most workers
// goroutines and returns once every call has finished; at one worker
// or fewer it calls fn in index order on the caller's goroutine.
// Callers slot results by index, so the outcome does not depend on
// workers.
func forEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
