//go:build race

package sim

// raceDetectorEnabled skips allocation pins on paths that take from a
// sync.Pool: under the race detector the pool drops items at random.
const raceDetectorEnabled = true
