//go:build !race

package policy

const raceDetectorEnabled = false
