//go:build race

package sim_test

// raceDetector reports whether the test binary runs under -race; the
// allocation contracts are skipped there, since the detector's
// instrumentation allocates on its own.
const raceDetector = true
