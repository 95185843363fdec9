package unison

func init() {
	if hasAVX2() {
		tickVector = tickAVX2
	}
}

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func hasAVX2() bool

// tickAVX2 is tick for len(st) a multiple of 16, in YMM registers.
//
//go:noescape
func tickAVX2(st []int64, k int64)
