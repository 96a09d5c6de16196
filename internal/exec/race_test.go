//go:build race

package exec

// raceEnabled: the race detector drops sync.Pool items at random, so
// tests that count what pooled buffers save skip under it.
const raceEnabled = true
