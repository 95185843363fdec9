package service

import (
	"fmt"
	"reflect"
	"testing"
)

// TestGrantAdapterDiscipline walks the adapter through one script: the
// ascending pass with idle and busy waste, external occupancy, a held
// server skipping its privilege, FIFO order per vertex, stable expiry in
// issue order, release and filtering.
func TestGrantAdapterDiscipline(t *testing.T) {
	t.Parallel()
	a := NewAdapter[int, string](2, 6, 2) // vertices [2, 6), capacity 2
	for _, p := range [][2]int{{3, 30}, {3, 31}, {5, 50}, {2, 20}, {5, 51}} {
		a.Push(p[0], p[1])
	}
	var issued []string
	admit := func(end int64) func(int, int) (int64, string) {
		return func(v, r int) (int64, string) {
			issued = append(issued, fmt.Sprintf("%d:%d", v, r))
			return end, fmt.Sprintf("g%d", r)
		}
	}
	check := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}

	// One external grant leaves one slot: vertex 2 takes it, 3 and 5 are
	// blocked, 4 has nobody waiting.
	idle, busy := a.Issue([]int{2, 3, 4, 5}, 1, admit(10))
	check("waste", [2]int{idle, busy}, [2]int{1, 2})
	check("issued", issued, []string{"2:20"})
	check("waiting", a.Waiting(), 4)

	// Vertex 2's server is busy: its privilege is consumed, not wasted.
	idle, busy = a.Issue([]int{2, 3, 5}, 0, admit(7))
	check("waste", [2]int{idle, busy}, [2]int{0, 1})
	check("issued", issued, []string{"2:20", "3:30"})
	check("queue 3", a.Queue(3), []int{31})
	check("active", a.Active(), []Grant[string]{{V: 2, End: 10, Data: "g20"}, {V: 3, End: 7, Data: "g30"}})

	// Expiry hands grants over in issue order and keeps the survivors'.
	var done []string
	expire := func(now int64) { a.Expire(now, func(g Grant[string]) { done = append(done, g.Data) }) }
	expire(6)
	check("expired by 6", done, []string(nil))
	expire(7)
	check("expired by 7", done, []string{"g30"})
	a.Issue([]int{3, 5}, 0, admit(10))
	check("active", a.Active(), []Grant[string]{{V: 2, End: 10, Data: "g20"}, {V: 3, End: 10, Data: "g31"}})
	expire(10)
	check("expired by 10", done, []string{"g30", "g20", "g31"})

	a.Issue([]int{5}, 0, admit(12))
	check("release unknown", a.Release(func(d string) bool { return d == "g30" }), false)
	check("release", a.Release(func(d string) bool { return d == "g50" }), true)
	check("active", len(a.Active()), 0)

	// Filtering keeps queue order and the waiting count.
	a.Push(3, 32)
	a.Push(3, 33)
	a.Filter(func(v, r int) bool { return r != 32 })
	check("queue 3", a.Queue(3), []int{33})
	check("queue 5", a.Queue(5), []int{51})
	check("waiting", a.Waiting(), 2)
	a.Filter(func(int, int) bool { return false })
	check("waiting", a.Waiting(), 0)
	check("queue 3", len(a.Queue(3)), 0)
}
