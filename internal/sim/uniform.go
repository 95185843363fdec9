package sim

// Uniform is an optional capability of a Protocol: the declaration of a
// rule that the synchronous step maps onto itself, and the kernel that
// applies it to every vertex at once. UniformRule() must name a rule r
// with this property, for every configuration c: if every vertex is
// enabled with r in c and all of them fire r together, every vertex is
// enabled with r again in the successor.
//
// ApplyUniformFlat(st) is that firing on packed state: st holds whole
// records, FlatWords() words each, every one of them enabled with r, and
// the kernel replaces each record in place by its successor under r —
// what ApplyFlat writes for it with rule r. It reads nothing but the
// record it rewrites (r's move must not read neighbours for a record to
// be replaced in place), so shards over disjoint ranges may run it
// concurrently. st may start anywhere and have any length: the engine
// hands each shard its own range, and a kernel with a vector body (as
// unison's on CPUs with AVX2) finishes a range off its block size with
// a portable tail.
//
// This is speculation applied to the engine. Under the synchronous daemon
// the probable execution of a unison-family protocol is Γ₁ with every
// clock ticking together, and there the declaration tells the engine the
// outcome of the next guard pass before it runs: a full-firing step from a
// configuration enabled everywhere with r runs the kernel over the front
// buffer, skips the guard pass and keeps its rule table and enabled list
// (DESIGN.md §11). Every other step evaluates guards and applies moves as
// before, so executions are unchanged; only the guard-evaluation count of
// the skipped passes is saved.
//
// A declaration that does not hold, or a kernel that does not agree with
// ApplyFlat, silently corrupts executions, like an under-reported Local
// read-set. The fixpoint oracle tests check the declaration by
// enumeration on small instances and by lockstep against a full-rescan
// engine; TestUniformKernelMatchesApplyFlat checks the kernel against
// ApplyFlat on unaligned slices of 0 to 70 records with the clock's wrap
// at every position.
type Uniform interface {
	UniformRule() Rule
	ApplyUniformFlat(st []int64)
}

// UniformOf returns p's declared uniform rule, or NoRule when p does not
// declare one.
func UniformOf[S comparable](p Protocol[S]) Rule {
	if u, ok := any(p).(Uniform); ok {
		return u.UniformRule()
	}
	return NoRule
}
