//go:build race

package serve

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of what is put back, so pool-backed alloc budgets cannot hold.
const raceEnabled = true
