package service

import "slices"

// Grant is one outstanding grant: vertex V serves until End (a tick or a
// round, in the caller's clock), carrying the caller's Data.
type Grant[G any] struct {
	V    int
	End  int64
	Data G
}

// Adapter is the grant discipline of the repository, run by Sim.Tick
// over ticks and by netrun's per-node gate over committed rounds. For the
// vertices [lo, hi) it owns the FIFO request queues (of R), the
// outstanding grants in issue order (carrying a G), their expiry, and the
// grant pass. Callers own what a request carries, when a grant ends and
// what a client is told. Not safe for concurrent use.
type Adapter[R, G any] struct {
	lo       int
	capacity int
	queues   []fifo[R]
	waiting  int
	active   []Grant[G] // ≤ capacity entries, in issue order
}

// NewAdapter returns an empty adapter for the vertices [lo, hi) under a
// system-wide capacity.
func NewAdapter[R, G any](lo, hi, capacity int) *Adapter[R, G] {
	return &Adapter[R, G]{lo: lo, capacity: capacity, queues: make([]fifo[R], hi-lo)}
}

// Push queues r at the back of vertex v's queue.
func (a *Adapter[R, G]) Push(v int, r R) {
	q := &a.queues[v-a.lo]
	q.reqs = append(q.reqs, r)
	a.waiting++
}

// Waiting returns the number of queued requests.
func (a *Adapter[R, G]) Waiting() int { return a.waiting }

// Queue returns vertex v's queued requests, oldest first (read-only; valid
// until the next mutation).
func (a *Adapter[R, G]) Queue(v int) []R {
	q := &a.queues[v-a.lo]
	return q.reqs[q.head:]
}

// Active returns the outstanding grants in issue order (read-only; valid
// until the next mutation).
func (a *Adapter[R, G]) Active() []Grant[G] { return a.active }

// Expire removes every grant whose End is at or before now, handing each
// to done in issue order; the survivors keep their order.
func (a *Adapter[R, G]) Expire(now int64, done func(Grant[G])) {
	w := 0
	for _, g := range a.active {
		if g.End <= now {
			done(g)
			continue
		}
		a.active[w] = g
		w++
	}
	clear(a.active[w:])
	a.active = a.active[:w]
}

// Release removes the oldest grant whose Data satisfies match and reports
// whether there was one.
func (a *Adapter[R, G]) Release(match func(G) bool) bool {
	for i, g := range a.active {
		if match(g.Data) {
			a.active = slices.Delete(a.active, i, i+1)
			return true
		}
	}
	return false
}

// Filter keeps the queued requests for which keep(v, r) holds, in their
// queue order, and drops the rest.
func (a *Adapter[R, G]) Filter(keep func(v int, r R) bool) {
	for i := 0; i < len(a.queues) && a.waiting > 0; i++ {
		q := &a.queues[i]
		w := q.head
		for _, r := range q.reqs[q.head:] {
			if keep(a.lo+i, r) {
				q.reqs[w] = r
				w++
			}
		}
		a.waiting -= len(q.reqs) - w
		clear(q.reqs[w:])
		q.reqs = q.reqs[:w]
		if q.head == w {
			q.reqs, q.head = q.reqs[:0], 0
		}
	}
}

// Issue runs one grant pass over priv, the sorted privileged vertices of
// [lo, hi). A vertex whose server already holds a grant is skipped — its
// occupant is consuming the privilege; one with an empty queue is idle
// waste; one that finds external plus outstanding grants at capacity is
// busy waste. Otherwise the oldest request is popped and admit prices
// the grant (its End and Data). external counts grants held outside this
// adapter against the same capacity.
func (a *Adapter[R, G]) Issue(priv []int, external int, admit func(v int, r R) (end int64, data G)) (idle, busy int) {
next:
	for _, v := range priv {
		for i := range a.active {
			if a.active[i].V == v {
				continue next
			}
		}
		q := &a.queues[v-a.lo]
		if q.len() == 0 {
			idle++
			continue
		}
		if external+len(a.active) >= a.capacity {
			busy++
			continue
		}
		r := q.pop()
		a.waiting--
		end, data := admit(v, r)
		a.active = append(a.active, Grant[G]{V: v, End: end, Data: data})
	}
	return idle, busy
}

// fifo is a per-vertex queue with an amortized-O(1) pop.
type fifo[R any] struct {
	reqs []R
	head int
}

func (q *fifo[R]) pop() R {
	r := q.reqs[q.head]
	clear(q.reqs[q.head : q.head+1])
	q.head++
	if q.head == len(q.reqs) {
		q.reqs, q.head = q.reqs[:0], 0
	}
	return r
}

func (q *fifo[R]) len() int { return len(q.reqs) - q.head }
