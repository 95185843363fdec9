package core

import "specstab/internal/graph"

// The complexity landscape of the paper, as executable formulas. The
// experiment harness prints measured values next to these bounds; the
// *shape* agreement (measured ≤ bound, bound attained by the adversarial
// configurations of adversarial.go) is the reproduction target.

// SyncBound returns ⌈diam(g)/2⌉, the synchronous stabilization bound of
// Theorem 2 — also the universal lower bound of Theorem 4, hence the exact
// optimal synchronous stabilization time of mutual exclusion.
func SyncBound(g *graph.Graph) int {
	d := g.Diameter()
	return (d + 1) / 2
}

// UnfairBoundMoves returns the Theorem 3 move bound under the unfair
// distributed daemon, instantiated with the paper's α = n:
// 2·diam·n³ + (n+1)·n² + (n − 2·diam)·n ∈ O(diam(g)·n³).
func (p *Protocol) UnfairBoundMoves() int { return p.uni.UnfairHorizonMoves() }

// SyncUnisonHorizon returns 2n + diam(g), the synchronous horizon by which
// SSME's underlying unison has reached Γ₁ (proof of Theorem 2, Case 3:
// α + lcp(g) + diam(g) ≤ 2n + diam(g) with α = n and lcp(g) ≤ n).
func (p *Protocol) SyncUnisonHorizon() int { return 2*p.g.N() + p.g.Diameter() }

// ServiceWindow returns a synchronous-step window within which, starting
// from any configuration of Γ₁, every vertex is guaranteed to have executed
// its critical section: the clock ring has K values and under the
// synchronous daemon the slowest register advances at least once every two
// steps once legitimate (a locally minimal register is always enabled), so
// 2K + SyncUnisonHorizon is a comfortable liveness-checking horizon.
func (p *Protocol) ServiceWindow() int { return 2*p.x.K + p.SyncUnisonHorizon() }
