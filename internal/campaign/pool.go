// Package campaign is the declarative sweep layer: a Campaign value names
// a whole evaluation grid — a base scenario.Scenario, axes over any of its
// fields, a trial count, a metric list and an aggregation spec — and the
// runner expands the cartesian product, executes every cell × trial on the
// deterministic worker pool, folds the samples in grid order and renders
// one stats.Table (streamed as CSV/JSON rows while the grid runs). Cells
// are fingerprinted, so a checkpoint journal makes multi-hour grids
// resumable: completed cells replay from the journal, everything else
// re-runs.
//
// The same scheduler drives the Go-level experiment harness
// (internal/experiments): Sweep executes typed cell grids with the
// identical determinism contract, so every experiment is a grid plus a
// thin metric extractor rather than a bespoke loop (DESIGN.md §9).
package campaign

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the worker fan-out of a grid execution. Results are bitwise
// identical for every worker count: all per-task randomness is fixed
// before the fan-out and folds run in task order (DESIGN.md §7).
type Pool struct {
	// Workers caps concurrent tasks (0 = GOMAXPROCS): the calling
	// goroutine plus Workers−1 helpers, started per grid.
	Workers int
}

// count resolves the pool size against the task count.
func (p Pool) count(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forCells is the grid scheduler every campaign and experiment runs on:
// len(counts) cells with counts[i] tasks each, run(cell, trial) fanned out
// over the pool, and fold(cell, samples) invoked in strictly increasing
// cell order once the cell and all its predecessors have completed — so
// checkpoints and streamed rows appear while later cells still execute.
// With W workers, W−1 helper goroutines and the caller claim task indices
// in grid order from one atomic counter; there is no feeder goroutine and
// no channel. Folds run on the caller only, between its own tasks and once
// more after the helpers join, so a fold may lag its cell's completion by
// at most one of the caller's tasks.
//
// Determinism: folds run sequentially in cell order regardless of worker
// count or completion order; on failure the error of the lowest
// (cell, trial) task wins, and no cell at or after it is folded. Cells
// with zero tasks fold with an empty sample slice (reduce-only cells).
func forCells[R any](pool Pool, counts []int, run func(cell, trial int) (R, error), fold func(cell int, samples []R) error) error {
	offs := make([]int, len(counts)+1)
	total := 0
	for i, c := range counts {
		offs[i] = total
		total += c
	}
	offs[len(counts)] = total

	results := make([]R, total)
	errs := make([]error, total)
	cellOf := make([]int, total)
	for i, c := range counts {
		for t := 0; t < c; t++ {
			cellOf[offs[i]+t] = i
		}
	}

	workers := pool.count(total)
	if workers <= 1 {
		for i := range counts {
			for t := 0; t < counts[i]; t++ {
				r, err := run(i, t)
				if err != nil {
					return err
				}
				results[offs[i]+t] = r
			}
			if err := fold(i, results[offs[i]:offs[i+1]]); err != nil {
				return err
			}
		}
		return nil
	}

	// A task publishes its result by decrementing its cell's remaining
	// count; the caller folds a cell once that count reads zero.
	var next atomic.Int64
	remaining := make([]atomic.Int64, len(counts))
	for i, c := range counts {
		remaining[i].Store(int64(c))
	}
	task := func(i int) {
		cell := cellOf[i]
		results[i], errs[i] = run(cell, i-offs[cell])
		remaining[cell].Add(-1)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < total; i = int(next.Add(1) - 1) {
				task(i)
			}
		}()
	}

	cursor := 0
	var failure error
	advance := func() {
		for cursor < len(counts) && failure == nil && remaining[cursor].Load() == 0 {
			for t := offs[cursor]; t < offs[cursor+1]; t++ {
				if errs[t] != nil {
					failure = errs[t]
					return
				}
			}
			if err := fold(cursor, results[offs[cursor]:offs[cursor+1]]); err != nil {
				failure = err
				return
			}
			cursor++
		}
	}
	for {
		advance()
		i := int(next.Add(1) - 1)
		if i >= total {
			break
		}
		task(i)
	}
	wg.Wait()
	advance()
	return failure
}

// Map runs fn(0..n-1) on the pool and returns the results in index order —
// the plain trial fan-out. fn must not touch shared randomness: draw it
// beforehand and capture it by index.
func Map[T any](pool Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	var out []T
	err := forCells(pool, []int{n},
		func(_, trial int) (T, error) { return fn(trial) },
		func(_ int, samples []T) error { out = append([]T(nil), samples...); return nil })
	return out, err
}

// Sweep executes a typed cell grid: trials(c) tasks per cell fanned out on
// the pool, then reduce(c, samples) folded in cell order — the Go-level
// form of a campaign, used by every experiment in internal/experiments.
// reduce runs sequentially and may itself execute measurements that must
// stay un-contended (wall-clock cells); run must be pure in the shared-rng
// sense of Map.
func Sweep[C any, R any](pool Pool, cells []C, trials func(c C) int, run func(c C, trial int) (R, error), reduce func(c C, samples []R) error) error {
	counts := make([]int, len(cells))
	for i, c := range cells {
		counts[i] = trials(c)
	}
	return forCells(pool, counts,
		func(cell, trial int) (R, error) { return run(cells[cell], trial) },
		func(cell int, samples []R) error { return reduce(cells[cell], samples) })
}
