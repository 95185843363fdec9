package campaign

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForCellsFoldOrder pins the scheduler contract: folds arrive in
// strictly increasing cell order with the cell's samples in trial order,
// for every worker count, including cells with zero tasks.
func TestForCellsFoldOrder(t *testing.T) {
	t.Parallel()
	counts := []int{2, 0, 3, 1, 0}
	for _, workers := range []int{1, 2, 8} {
		var folded []string
		err := forCells(Pool{Workers: workers}, counts,
			func(cell, trial int) (string, error) {
				return fmt.Sprintf("%d.%d", cell, trial), nil
			},
			func(cell int, samples []string) error {
				folded = append(folded, fmt.Sprintf("%d:%v", cell, samples))
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := "[0:[0.0 0.1] 1:[] 2:[2.0 2.1 2.2] 3:[3.0] 4:[]]"
		if got := fmt.Sprintf("%v", folded); got != want {
			t.Fatalf("workers=%d fold order:\ngot  %s\nwant %s", workers, got, want)
		}
	}
}

// TestForCellsErrorPrecedence: the lowest (cell, trial) error wins and no
// cell at or after it folds, for every worker count.
func TestForCellsErrorPrecedence(t *testing.T) {
	t.Parallel()
	boom2 := errors.New("cell 2 failed")
	boom3 := errors.New("cell 3 failed")
	for _, workers := range []int{1, 4} {
		var folded []int
		err := forCells(Pool{Workers: workers}, []int{1, 1, 1, 1},
			func(cell, _ int) (int, error) {
				switch cell {
				case 2:
					return 0, boom2
				case 3:
					return 0, boom3
				}
				return cell, nil
			},
			func(cell int, _ []int) error {
				folded = append(folded, cell)
				return nil
			})
		if !errors.Is(err, boom2) {
			t.Fatalf("workers=%d: err = %v, want the lowest-cell error", workers, err)
		}
		for _, c := range folded {
			if c >= 2 {
				t.Fatalf("workers=%d: cell %d folded despite an earlier failure", workers, c)
			}
		}
	}
}

// TestForCellsReverseCompletion gates every task on its successor's
// completion, so the tasks finish in exactly the reverse of grid order —
// the last task first — while the helpers and the caller each hold one.
// Folds must still arrive in cell order, each with its cell's samples in
// trial order, and when a later task fails first the lowest failing task's
// error must win, with no cell at or after it folded.
func TestForCellsReverseCompletion(t *testing.T) {
	t.Parallel()
	counts := []int{2, 2, 0, 1}
	first := []int{0, 2, 4, 4} // grid index of each cell's trial 0
	total := 5
	errOf := map[int]error{}
	for _, failing := range [][]int{nil, {2, 4}} {
		for _, task := range failing {
			errOf[task] = fmt.Errorf("task %d failed", task)
		}
		for _, workers := range []int{total, 8} {
			gates := make([]chan struct{}, total+1)
			for i := range gates {
				gates[i] = make(chan struct{})
			}
			close(gates[total])
			var mu sync.Mutex
			var finished []int
			var folded []string
			err := forCells(Pool{Workers: workers}, counts,
				func(cell, trial int) (string, error) {
					task := first[cell] + trial
					<-gates[task+1]
					mu.Lock()
					finished = append(finished, task)
					mu.Unlock()
					close(gates[task])
					return fmt.Sprintf("%d.%d", cell, trial), errOf[task]
				},
				func(cell int, samples []string) error {
					folded = append(folded, fmt.Sprintf("%d:%v", cell, samples))
					return nil
				})
			name := fmt.Sprintf("failing=%v workers=%d", failing, workers)
			if got := fmt.Sprint(finished); got != "[4 3 2 1 0]" {
				t.Fatalf("%s: tasks finished in order %s, want reverse grid order", name, got)
			}
			want, wantErr := "[0:[0.0 0.1] 1:[1.0 1.1] 2:[] 3:[3.0]]", error(nil)
			if failing != nil {
				want, wantErr = "[0:[0.0 0.1]]", errOf[2]
			}
			if err != wantErr {
				t.Fatalf("%s: err = %v, want %v", name, err, wantErr)
			}
			if got := fmt.Sprint(folded); got != want {
				t.Fatalf("%s: folds\ngot  %s\nwant %s", name, got, want)
			}
		}
	}
}

// TestForCellsFoldError: a fold error surfaces and stops further folds.
func TestForCellsFoldError(t *testing.T) {
	t.Parallel()
	boom := errors.New("fold failed")
	for _, workers := range []int{1, 4} {
		var folds int32
		err := forCells(Pool{Workers: workers}, []int{1, 1, 1},
			func(cell, _ int) (int, error) { return cell, nil },
			func(cell int, _ []int) error {
				atomic.AddInt32(&folds, 1)
				if cell == 1 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want fold error", workers, err)
		}
		if folds != 2 {
			t.Fatalf("workers=%d: %d folds, want 2 (cells 0 and 1)", workers, folds)
		}
	}
}

// TestMapOrder: Map returns results in index order on a saturated pool.
func TestMapOrder(t *testing.T) {
	t.Parallel()
	out, err := Map(Pool{Workers: 8}, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestPoolCount pins the worker resolution rules.
func TestPoolCount(t *testing.T) {
	t.Parallel()
	if w := (Pool{}).count(4); w < 1 {
		t.Errorf("default worker count %d < 1", w)
	}
	if w := (Pool{Workers: 16}).count(3); w != 3 {
		t.Errorf("worker count not capped by task size: got %d, want 3", w)
	}
	if w := (Pool{Workers: 2}).count(100); w != 2 {
		t.Errorf("explicit worker count not honored: got %d, want 2", w)
	}
}
