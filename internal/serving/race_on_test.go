//go:build race

package serving

// raceEnabled reports a -race build, where sync.Pool drops a random
// quarter of its Puts, so pooled scratch shows up as allocations.
const raceEnabled = true
