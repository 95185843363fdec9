package sim

// Uniform is an optional capability of a Protocol: the declaration of a
// rule that the synchronous step maps onto itself. UniformRule() must
// name a rule r with this property, for every configuration c: if every
// vertex is enabled with r in c and all of them fire r together, every
// vertex is enabled with r again in the successor.
//
// This is speculation applied to the engine. Under the synchronous daemon
// the probable execution of a unison-family protocol is Γ₁ with every
// clock ticking together, and there the declaration tells the engine the
// outcome of the next guard pass before it runs: a full-firing step from a
// configuration enabled everywhere with r skips the guard pass and keeps
// its rule table and enabled list (DESIGN.md §11). Every other step
// evaluates guards as before, so executions are unchanged; only the
// guard-evaluation count of the skipped passes is saved.
//
// A declaration that does not hold silently corrupts executions, like an
// under-reported Local read-set. The fixpoint oracle tests check it by
// enumeration on small instances and by lockstep against a full-rescan
// engine.
type Uniform interface {
	UniformRule() Rule
}

// UniformOf returns p's declared uniform rule, or NoRule when p does not
// declare one.
func UniformOf[S comparable](p Protocol[S]) Rule {
	if u, ok := any(p).(Uniform); ok {
		return u.UniformRule()
	}
	return NoRule
}
