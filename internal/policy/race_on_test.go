//go:build race

package policy

// raceDetectorEnabled skips allocation pins on paths that take a context
// from the sync.Pool: under the race detector the pool drops items at
// random, so such a call sometimes builds a fresh context.
const raceDetectorEnabled = true
