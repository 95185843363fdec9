package sim

import "sort"

// Local is an optional capability of a Protocol: a declaration of the
// guard's read-set. Neighbors(v) must list every vertex u ≠ v whose state
// the guard of v reads — the read-set closure of EnabledRule(·, v). For the
// neighbor-reading protocols of this repository that is exactly the
// communication graph's adjacency; for directed read patterns (Dijkstra's
// ring, where v reads only its predecessor) it is the strict read-set,
// which may be asymmetric.
//
// The contract is what makes incremental enabled-set maintenance sound: in
// Dijkstra's atomic-state model a step changes only the states of the
// activated vertices, so the only vertices whose enabledness can change are
// the activated ones and the vertices that read them. An engine given a
// Local protocol re-evaluates guards only on that closed neighborhood (see
// Engine and DESIGN.md §6); a Neighbors that under-reports its read-set
// silently corrupts executions, so it must err on the side of inclusion.
//
// Neighbors may return a shared slice; callers must not mutate it. The
// returned ids need not be sorted (the engine sorts what it derives).
type Local interface {
	Neighbors(v int) []int
}

// NeighborLists is a Local backed by explicit adjacency lists — the
// building block for wrappers (compositions, products) that derive their
// read-sets from their components.
type NeighborLists [][]int

// Neighbors implements Local.
func (l NeighborLists) Neighbors(v int) []int { return l[v] }

// localProvider is the optional hook for wrapper protocols whose locality
// is conditional on their components (e.g. compose.Product): when
// implemented it takes precedence over a direct Local implementation, and
// returning ok=false opts out of locality entirely.
type localProvider interface {
	Local() (Local, bool)
}

// LocalOf returns p's locality declaration, or nil when p does not declare
// one (the engine then falls back to full guard rescans).
func LocalOf[S comparable](p Protocol[S]) Local {
	if lp, ok := any(p).(localProvider); ok {
		l, declared := lp.Local()
		if !declared {
			return nil
		}
		return l
	}
	if l, ok := any(p).(Local); ok {
		return l
	}
	return nil
}

// InfluenceCSR inverts the read-set relation of l into compressed sparse
// rows: row v, adj[off[v]:off[v+1]], lists in increasing order and without
// duplicates the vertices whose enabledness may change when v's state
// changes — v itself plus every u with v ∈ l.Neighbors(u). The rows are
// counted, prefix-summed and filled into one backing array, then each row
// is sorted and deduplicated in place and the array compacted, so the whole
// relation costs two allocations however many vertices there are. A nil l
// (a protocol without a locality declaration, whose guards may read any
// state) gets n rows that each list every vertex.
//
// The engine maintains its enabled set over these rows, and the greedy
// adversaries of internal/daemon score a move over them: any quantity of
// v computed from v's read-set can change only when a vertex whose row
// lists v moves.
func InfluenceCSR(n int, l Local) (off, adj []int) {
	if l == nil {
		off, adj = make([]int, n+1), make([]int, n*n)
		for v := 0; v < n; v++ {
			off[v+1] = off[v] + n
			for u := 0; u < n; u++ {
				adj[v*n+u] = u
			}
		}
		return off, adj
	}
	off = make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1]++
	}
	for u := 0; u < n; u++ {
		for _, v := range l.Neighbors(u) {
			if v != u {
				off[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Fill each row from its end: off[v+1] walks down to the row's start,
	// so afterwards off[v+1] holds where row v begins.
	adj = make([]int, off[n])
	fill := func(v, u int) {
		off[v+1]--
		adj[off[v+1]] = u
	}
	for v := 0; v < n; v++ {
		fill(v, v)
	}
	for u := 0; u < n; u++ {
		for _, v := range l.Neighbors(u) {
			if v != u {
				fill(v, u)
			}
		}
	}
	// Sort and dedup row by row, compacting the rows towards the front:
	// the write cursor never passes the row being read.
	w, end := 0, len(adj)
	for v := 0; v < n; v++ {
		lo, hi := off[v+1], end
		if v+1 < n {
			hi = off[v+2]
		}
		row := adj[lo:hi]
		sort.Ints(row)
		off[v] = w
		for i, x := range row {
			if i == 0 || x != row[i-1] {
				adj[w] = x
				w++
			}
		}
	}
	off[n] = w
	return off, adj[:w]
}
