//go:build race

package experiments

// raceDetector trims the claim gate: the race detector costs ~10x per
// simulated cycle, which takes the full gate past a minute.
const raceDetector = true
