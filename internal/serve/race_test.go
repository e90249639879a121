//go:build race

package serve

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random share of what is put back, so allocation
// counts of pooled paths do not hold.
const raceEnabled = true
