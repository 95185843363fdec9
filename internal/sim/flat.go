package sim

// The flat execution representation (DESIGN.md §6), the only one the
// Engine runs on. Interpreting Protocol directly costs one interface call
// per guard evaluation and one per move, over a boxed Config[S] slice; at
// the scales the speculation experiments target (rings of 10⁵–10⁶
// vertices under the synchronous daemon) that dispatch would dominate the
// step loop. Every protocol therefore provides the Flat capability: a
// codec packing each vertex state into a fixed number of int64 words plus
// *batch* guard/apply kernels operating directly on the packed array —
// one interface call per vertex batch instead of per vertex, no per-step
// allocation, and neighbor access via compressed-sparse-row offsets
// (internal/graph.CSR) instead of nested slices.
//
// The packed configuration is laid out vertex-major: with stride words per
// vertex, vertex v's record occupies st[v*stride+base : v*stride+base+W]
// where W = FlatWords(). The explicit stride/base pair is what makes
// compositions free: compose.Product packs component A's words and
// component B's words side by side in one record and hands each component
// the same array with a shifted base — no projection copies.
//
// Soundness contract: for every configuration c and its packed image,
// EnabledRuleFlat and ApplyFlat must agree exactly with EnabledRule and
// Apply, and EncodeState/DecodeState must round-trip every state the
// protocol can produce. The engine keeps the decoded Config[S] as a
// shadow that daemons, hooks and Current() read: the general step decodes
// the moved vertices at commit, the dense synchronous step leaves the
// shadow stale, and Current decodes all of it (DecodeStates) on the next
// read. The differential tests drive the engine against a sequential
// reference stepper that interprets EnabledRule and Apply directly,
// through every protocol × daemon family, asserting bitwise identical
// executions.

// Flat is the optional flat-execution capability of a Protocol.
// Implementations must be pure and safe for concurrent callers: the
// engine's shard-parallel step invokes the batch kernels from multiple
// goroutines against a frozen packed configuration.
type Flat[S comparable] interface {
	// FlatWords returns W, the number of int64 words per vertex state
	// (≥ 1, constant for the protocol's lifetime).
	FlatWords() int
	// EncodeState packs vertex v's state into dst[0:W].
	EncodeState(v int, s S, dst []int64)
	// DecodeState unpacks vertex v's state from src[0:W].
	DecodeState(v int, src []int64) S
	// DecodeStates unpacks the states of every vertex in vs from the
	// packed configuration st into cfg[vs[i]] — the batch form the engine
	// uses to refresh its decoded shadow (one interface call per commit
	// shard or per stale read, instead of one per vertex). It must not
	// allocate.
	DecodeStates(st []int64, stride, base int, vs []int, cfg Config[S])
	// EnabledRuleFlat evaluates the guard of every vertex in vs against
	// the packed configuration st (vertex v's words at
	// st[v*stride+base:]), writing the enabled rule — or NoRule — into
	// rules[i] for vs[i]. len(rules) == len(vs).
	EnabledRuleFlat(st []int64, stride, base int, vs []int, rules []Rule)
	// ApplyFlat computes the next state of every vertex in vs, whose
	// enabled rule is rules[i], writing vs[i]'s next words at
	// out[i*outStride+outBase:]. It must only be called with rules
	// reported by EnabledRuleFlat and must not write st.
	ApplyFlat(st []int64, stride, base int, vs []int, rules []Rule, out []int64, outStride, outBase int)
}

// IntWord is an embeddable one-word codec for protocols whose per-vertex
// state is a plain int (every clock/counter/level protocol of this
// repository): it provides the packing half of sim.Flat[int], leaving the
// embedding protocol to implement only the batch guard/apply kernels.
type IntWord struct{}

// FlatWords implements sim.Flat: one word.
func (IntWord) FlatWords() int { return 1 }

// EncodeState implements sim.Flat.
func (IntWord) EncodeState(_ int, s int, dst []int64) { dst[0] = int64(s) }

// DecodeState implements sim.Flat.
func (IntWord) DecodeState(_ int, src []int64) int { return int(src[0]) }

// DecodeStates implements sim.Flat (the batch shadow refresh).
func (IntWord) DecodeStates(st []int64, stride, base int, vs []int, cfg Config[int]) {
	if stride == 1 && base == 0 {
		for _, v := range vs {
			cfg[v] = int(st[v])
		}
		return
	}
	for _, v := range vs {
		cfg[v] = int(st[v*stride+base])
	}
}

// flatProvider is the optional hook for wrapper protocols whose flat
// capability is conditional on their components (e.g. compose.Product):
// when implemented it takes precedence over a direct Flat implementation,
// and returning ok=false opts out.
type flatProvider[S comparable] interface {
	Flat() (Flat[S], bool)
}

// FlatOf returns p's flat codec, or nil when p does not provide one (the
// engine then refuses to run it).
func FlatOf[S comparable](p Protocol[S]) Flat[S] {
	if fp, ok := any(p).(flatProvider[S]); ok {
		f, declared := fp.Flat()
		if !declared {
			return nil
		}
		return f
	}
	if f, ok := any(p).(Flat[S]); ok {
		return f
	}
	return nil
}

// RuleBounded is an optional capability declaring a static upper bound on
// the protocol's rule values: every rule EnabledRule can report lies in
// [1, MaxRule()]. Wrappers use it to pre-intern derived rule spaces
// deterministically (compose.Product builds its full pair table at
// construction, making guard evaluation lock-free and rule numbering
// independent of encounter order — the property the shard-parallel step
// and the worker-count-invariance tests rely on).
type RuleBounded interface {
	// MaxRule returns the largest rule value the protocol uses; a return
	// of 0 (NoRule) means the bound is unknown.
	MaxRule() Rule
}

// MaxRuleOf returns p's declared rule bound, or (0, false) when p does
// not declare one.
func MaxRuleOf[S comparable](p Protocol[S]) (Rule, bool) {
	if rb, ok := any(p).(RuleBounded); ok {
		if r := rb.MaxRule(); r > 0 {
			return r, true
		}
	}
	return 0, false
}

// DefaultShardSize is the minimum batch width per shard of the parallel
// phases: work of at most this many vertices runs inline on the caller,
// and larger work splits into shards of at least this size. It is the
// measured cutoff of the pool's epoch hand-offs on a 2-core host: a
// full-firing SSME step forced onto two shards loses to one worker at
// n = 8192 (86–94 vs 58–86 µs), breaks even at 16384 and wins from
// 24576 on (188–207 vs 241–249 µs), so the 8192-ring steps inline and the
// 65536- and 1048576-rings still split in two. Those figures were taken
// with the guard pass in every step. A speculated step (stepFused) is one
// epoch, the in-place uniform tick. On unison's AVX2 kernel (about 0.2 ns
// a record), two shards of n/2 lose to one worker at every size up to
// 262144: 2.9–3.5 vs 1.7–2.2 µs at 8192, 18.7–20.4 vs 12.8–16.7 µs at
// 65536, 132–133 vs 60–71 µs at 262144. They win only once the ring
// outgrows the caches: 187–193 vs 212–223 µs at 524288, 285–327 vs
// 437–469 µs at 1048576. That break-even concerns the speculated epoch
// alone, while this constant also splits the guard-pass epochs that win
// from 24576, so it stays (BENCH_parallel.json, vector_kernel). What two
// shards lose below that is the pool's parked hand-off: in a prototype
// pool whose helpers spin before parking, two shards won from 32768
// (5.7–6.0 vs 7.4–8.7 µs) at the cost of a helper core kept spinning.
const DefaultShardSize = 16384

// Options configures engine construction beyond the mandatory arguments
// of NewEngine. The zero value means: GOMAXPROCS shard workers,
// DefaultShardSize shards, a privately owned worker pool. Every option
// choice produces bitwise identical executions — only throughput changes.
type Options struct {
	// Workers bounds the concurrency of the shard-parallel phases:
	// 0 means runtime.GOMAXPROCS(0) (or the width of Pool when one is
	// supplied), 1 disables parallelism entirely. Negative values are
	// rejected by NewEngineWith.
	Workers int
	// ShardSize is the minimum number of vertices per shard (0 means
	// DefaultShardSize; negative values are rejected). Tests lower it to
	// force parallel evaluation on small graphs.
	ShardSize int
	// Pool, when non-nil, is the persistent worker pool the engine's
	// sharded phases run on. Share one Pool across engines (campaign
	// sweeps do) so helper goroutines start once per process rather than
	// once per engine; the pool's owner closes it. Epochs on a shared
	// pool are serialized, but work of at most ShardSize vertices runs
	// inline and never takes the pool, so the small engines of a sweep,
	// stepping concurrently on the grid scheduler's workers, never wait
	// on each other. Nil means the engine lazily owns a private pool,
	// released by Engine.Close or when the engine is collected; an
	// engine of at most ShardSize vertices never splits its work and
	// gets none. Pools affect throughput only, never executions.
	Pool *Pool
}
