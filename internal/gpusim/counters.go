package gpusim

// Counters are the per-kernel hardware performance counters the model
// exposes, matching the metrics the paper's Fig. 4 plots from the Radeon
// Compute Profiler: vector-ALU instruction count, data loaded from
// memory, and cycles stalled on memory writes.
type Counters struct {
	// VALUInsts is the number of vector-ALU instructions executed
	// (per-lane FMA count).
	VALUInsts float64
	// LoadBytes is the data volume actually fetched from DRAM, after
	// cache filtering ("load data size" in Fig. 4).
	LoadBytes float64
	// StoreBytes is the data volume written to DRAM.
	StoreBytes float64
	// MemWriteStallCycles is the number of core cycles the kernel spent
	// stalled behind the write path ("mem write stalls" in Fig. 4).
	MemWriteStallCycles float64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.VALUInsts += other.VALUInsts
	c.LoadBytes += other.LoadBytes
	c.StoreBytes += other.StoreBytes
	c.MemWriteStallCycles += other.MemWriteStallCycles
}
