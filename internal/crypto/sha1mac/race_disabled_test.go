//go:build !race

package sha1mac

const raceEnabled = false
