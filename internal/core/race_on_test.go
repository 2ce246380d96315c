//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool discards a share of
// its Puts on purpose and pool-hit assertions cannot hold.
const raceEnabled = true
