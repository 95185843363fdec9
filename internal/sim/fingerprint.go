package sim

import (
	"fmt"
	"hash/fnv"
)

// Fingerprinting is the identity currency of the harness: differential
// tests hash configurations to prove worker invariance, and the
// campaign layer hashes resolved evaluation cells to key its resumable
// checkpoint journal. Everything uses FNV-1a over a stable rendering, so
// the same logical value fingerprints identically across processes and
// runs.

// FNV-1a parameters (matching hash/fnv's 64-bit variant).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Fingerprint64 hashes a byte rendering with FNV-1a.
func Fingerprint64(data []byte) uint64 {
	h := fnvOffset64
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// FingerprintConfig hashes a configuration via its %v rendering — the
// cross-construction identity the differential and invariance tests
// compare across worker counts and against the reference stepper. Integer-state
// configurations (every flat-codec protocol, and the networked
// runtime's per-round commit) take an fmt-free path that folds the
// identical rendering into the hash byte by byte — no boxing, no
// allocation; TestFingerprintConfigFastPath pins the two paths to the
// same value.
func FingerprintConfig[S comparable](c Config[S]) uint64 {
	if ints, ok := any(c).(Config[int]); ok {
		h := fnvAddByte(fnvOffset64, '[')
		for i, v := range ints {
			if i > 0 {
				h = fnvAddByte(h, ' ')
			}
			h = fnvAddInt(h, int64(v))
		}
		return fnvAddByte(h, ']')
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", c)
	return h.Sum64()
}

func fnvAddByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvAddInt folds v's decimal rendering (what %v prints for an int)
// into the hash.
func fnvAddInt(h uint64, v int64) uint64 {
	var buf [20]byte
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	if v < 0 {
		i--
		buf[i] = '-'
	}
	for _, b := range buf[i:] {
		h = fnvAddByte(h, b)
	}
	return h
}
