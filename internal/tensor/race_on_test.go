//go:build race

package tensor

// raceEnabled reports a -race build, where sync.Pool drops a share of its
// Puts, so pooled scratch is reallocated.
const raceEnabled = true
