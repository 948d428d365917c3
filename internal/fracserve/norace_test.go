//go:build !race

package fracserve

// raceEnabled reports a build with the race detector, which changes
// allocation counts: it drops a share of sync.Pool puts on purpose.
const raceEnabled = false
