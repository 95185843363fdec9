package sim

// Test-only views of engine internals for the external test package, which
// imports the protocol and daemon packages (an internal test file cannot:
// they import sim).

// Seeded reports whether the engine's daemon generator has seeded its
// math/rand source yet.
func (e *Engine[S]) Seeded() bool { return e.src.seeded }

// HasPool reports whether the engine has a worker pool, its own or shared.
func (e *Engine[S]) HasPool() bool { return e.pool != nil }
