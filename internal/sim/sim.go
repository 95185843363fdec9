// Package sim mechanizes the computational model of Section 2 (Dijkstra's
// atomic-state model): a distributed protocol is a set of guarded rules per
// vertex; a configuration assigns a state to every vertex; an execution is
// a sequence of actions (γ, γ′) in which a daemon-chosen non-empty subset
// of enabled vertices fire simultaneously, each reading the states of its
// neighbors and rewriting its own.
//
// The engine is generic over the per-vertex state type S so that every
// protocol in this repository (clock values for unison/SSME, counters for
// Dijkstra's ring, levels for BFS trees, pointer/married pairs for maximal
// matching) runs on the same substrate, under the same daemons, with the
// same measurement tooling.
//
// Terminology (fixed across the repository, see DESIGN.md §5):
//
//   - a step is one transition (γ, γ′) — one daemon selection;
//   - a move is one vertex firing within a step.
//
// Synchronous bounds in the paper (Theorems 2 and 4) count steps; the
// unfair-daemon bound (Theorem 3, via Devismes–Petit) counts moves.
//
// Protocols may additionally declare their guard read-sets (the Local
// capability, DESIGN.md §6); the Engine then maintains the enabled set
// incrementally — only activated vertices and their read-set closures are
// re-evaluated after each step — without changing executions. Every
// protocol the Engine runs provides a packed-state codec (the Flat
// capability, flat.go): the Engine runs on a []int64 array with batch
// guard/apply kernels and a double-buffered, shard-parallel synchronous
// step. The differential tests assert that its executions match, bit for
// bit and for every worker count, a sequential reference stepper that
// interprets the guarded rules directly.
package sim

import (
	"fmt"
	"math/rand"
)

// Rule identifies one guarded rule of a protocol (e.g. unison's NA/CA/RA).
// Values are protocol-specific and start at 1; 0 is reserved for "none".
type Rule int

// NoRule is the zero Rule, returned when no rule is enabled.
const NoRule Rule = 0

// Config is a configuration γ: the vector of all vertex states, indexed by
// vertex id. Configs are plain slices; use Clone before mutating a config
// that is shared.
type Config[S comparable] []S

// Clone returns an independent copy of the configuration.
func (c Config[S]) Clone() Config[S] {
	out := make(Config[S], len(c))
	copy(out, c)
	return out
}

// Equal reports whether two configurations assign identical states.
func (c Config[S]) Equal(o Config[S]) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Protocol is a deterministic distributed protocol in the guarded-rule
// representation of Section 2. A Protocol instance is bound to one
// communication graph; its methods must be pure functions of the
// configuration (the engine relies on this to implement synchronous steps,
// look-ahead daemons and model checking).
//
// Guards of distinct rules are mutually exclusive in every protocol of this
// repository, so EnabledRule returns at most one rule per vertex; this
// matches determinism as required by the lower bound of Section 5.
type Protocol[S comparable] interface {
	// Name identifies the protocol in reports.
	Name() string
	// N returns the number of vertices of the underlying graph.
	N() int
	// EnabledRule returns the rule enabled at v in c, or (NoRule, false).
	EnabledRule(c Config[S], v int) (Rule, bool)
	// Apply returns v's next state when rule r fires in configuration c.
	// It must only be called with the rule reported by EnabledRule.
	Apply(c Config[S], v int, r Rule) S
	// RandomState draws a state uniformly from vertex v's state domain;
	// arbitrary initial configurations (the aftermath of a transient
	// fault) are vectors of such states. The vertex matters for protocols
	// whose variable domains are per-vertex (e.g. matching pointers range
	// over neig(v) ∪ {⊥}).
	RandomState(v int, rng *rand.Rand) S
	// RuleName renders r for traces.
	RuleName(r Rule) string
}

// Daemon is the adversary of Definition 1, restricted — as in all concrete
// daemons of the paper — to choosing, at each step, which non-empty subset
// of the enabled vertices fires. Implementations append a non-empty subset
// of enabled to dst and return the result; the engine treats an empty
// selection as a daemon bug.
//
// Stateful daemons (round-robin cursors, adversary memory) are not safe
// for concurrent use; give each Engine its own Daemon value.
type Daemon[S comparable] interface {
	// Name identifies the daemon in reports (e.g. "sd", "ud/random-central").
	Name() string
	// Select chooses the vertices to activate this step and returns
	// append(dst, chosen...). c, enabled and dst are owned by the engine:
	// c and enabled are read-only, and dst — the engine's selection
	// buffer, passed empty — must not be retained past the call. The
	// result must be dst grown by append, never enabled or a slice the
	// daemon keeps, since the engine reuses it as the next call's dst.
	Select(c Config[S], enabled []int, rng *rand.Rand, dst []int) []int
}

// FiresAll is an optional capability of a Daemon declaring that it is the
// synchronous daemon sd: when FiresAllEnabled reports true, Select appends
// the whole enabled list and reads neither the configuration nor the
// generator. The engine then never calls Select — it fires the enabled
// list directly, and a dense step takes the fused synchronous path without
// decoding the configuration for the daemon. A wrapper daemon that
// forwards Select to an sd daemon must forward this method too, or its
// engines take the general path (the same execution, more slowly).
type FiresAll interface {
	FiresAllEnabled() bool
}

// firesAll reports whether d declares the FiresAll capability.
func firesAll[S comparable](d Daemon[S]) bool {
	fa, ok := d.(FiresAll)
	return ok && fa.FiresAllEnabled()
}

// RandomConfig draws an arbitrary configuration for p — the model of a
// system whose entire state was corrupted by a transient fault.
func RandomConfig[S comparable](p Protocol[S], rng *rand.Rand) Config[S] {
	cfg := make(Config[S], p.N())
	for v := range cfg {
		cfg[v] = p.RandomState(v, rng)
	}
	return cfg
}

// Corrupt returns a copy of c with k distinct randomly chosen registers
// replaced by arbitrary domain values — a transient fault burst. k is
// clamped to n. A corrupted register may coincidentally receive its old
// value: transient faults are allowed to be harmless.
func Corrupt[S comparable](p Protocol[S], c Config[S], k int, rng *rand.Rand) Config[S] {
	out := c.Clone()
	n := p.N()
	if k > n {
		k = n
	}
	for _, v := range rng.Perm(n)[:k] {
		out[v] = p.RandomState(v, rng)
	}
	return out
}

// Enabled returns the vertices with an enabled rule in c, in increasing
// order, appending to dst (pass nil to allocate).
func Enabled[S comparable](p Protocol[S], c Config[S], dst []int) []int {
	dst = dst[:0]
	for v := 0; v < p.N(); v++ {
		if _, ok := p.EnabledRule(c, v); ok {
			dst = append(dst, v)
		}
	}
	return dst
}

// Terminal reports whether c has no enabled vertex. Self-stabilizing
// protocols for "perpetual" specifications such as unison and mutual
// exclusion must never reach a terminal configuration; silence-based
// protocols (BFS tree, matching) stabilize exactly when they do.
func Terminal[S comparable](p Protocol[S], c Config[S]) bool {
	for v := 0; v < p.N(); v++ {
		if _, ok := p.EnabledRule(c, v); ok {
			return false
		}
	}
	return true
}

// Validate checks the basic sanity of a protocol/config pair.
func Validate[S comparable](p Protocol[S], c Config[S]) error {
	if len(c) != p.N() {
		return fmt.Errorf("sim: configuration has %d states for %d vertices", len(c), p.N())
	}
	return nil
}
