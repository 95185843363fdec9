//go:build !race

package service_test

// raceDetector reports whether the test binary runs under -race; the
// allocation contract is skipped there, since the detector's
// instrumentation allocates on its own.
const raceDetector = false
