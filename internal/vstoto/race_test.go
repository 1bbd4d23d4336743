//go:build race

package vstoto

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
