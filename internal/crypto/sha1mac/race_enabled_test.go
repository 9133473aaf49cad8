//go:build race

package sha1mac

// raceEnabled reports whether the race detector is active. Under -race
// sync.Pool deliberately drops items at random to widen interleavings,
// so pooled paths cannot be asserted allocation-free there.
const raceEnabled = true
