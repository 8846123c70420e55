//go:build !race

package sim

const raceDetectorEnabled = false
