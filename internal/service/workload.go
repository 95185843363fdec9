package service

// Client populations. Two arrival processes drive the service:
//
//   - open loop: requests arrive at a fixed mean rate regardless of how
//     fast the service drains them (Poisson-like counts per tick, drawn
//     from the service's seeded generator); every arrival is a fresh
//     client, so sustained overload grows the backlog without bound —
//     exactly the regime where starvation ages matter;
//   - closed loop: a fixed population of clients cycles think → request →
//     wait → critical section → think; the offered load self-throttles to
//     the service's throughput, which is the regime for measuring it.
//
// Populations scale to millions of clients multiplexed over the vertices
// of a flat-backend ring: per-client state is a few words in flat arrays
// (a timer-wheel slot while thinking, a queue record while waiting), so a
// 10⁶-client population costs megabytes, not gigabytes.

import (
	"fmt"
	"math"
	"math/rand"
)

// Workload is an arrival process over the n vertices of a lock. The Sim
// calls Arrivals exactly once per tick (in tick order) and Completed once
// per finished critical section; both may draw from rng, which the Sim
// consumes strictly sequentially — determinism for a fixed seed is the
// contract.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Arrivals emits every (client, vertex) request arriving at tick t.
	Arrivals(t int64, rng *rand.Rand, emit func(client int32, vertex int32))
	// Completed notifies that client's critical section at vertex v
	// finished at tick t (closed-loop populations schedule the next
	// think period here; open-loop populations ignore it).
	Completed(client int32, vertex int32, t int64, rng *rand.Rand)
	// Clients returns the population size for bounded populations, or 0
	// when clients are created on the fly (open loop). The Sim sizes its
	// per-client fairness counters from it.
	Clients() int
}

// ClosedLoop is the fixed-population workload: client c lives at vertex
// c mod n and thinks for a uniform [ThinkMin, ThinkMax] ticks between
// critical sections. Thinking clients sit in a timer wheel — O(1) per
// wake, no heap, no per-client allocation.
type ClosedLoop struct {
	n        int
	clients  int
	thinkMin int
	thinkMax int
	wheel    [][]int32
}

// NewClosedLoop builds a closed-loop population of clients over n
// vertices with think times uniform in [thinkMin, thinkMax] ticks.
// Initial arrivals are staggered deterministically across the first
// thinkMax+1 ticks so the service does not start with a thundering herd
// (thinkMax 0 starts everyone at tick 0).
func NewClosedLoop(n, clients, thinkMin, thinkMax int) (*ClosedLoop, error) {
	if n < 1 || clients < 1 {
		return nil, fmt.Errorf("service: closed loop needs n ≥ 1 and clients ≥ 1, got n=%d clients=%d", n, clients)
	}
	if thinkMin < 0 || thinkMax < thinkMin {
		return nil, fmt.Errorf("service: think range [%d, %d] invalid", thinkMin, thinkMax)
	}
	if clients > math.MaxInt32 {
		return nil, fmt.Errorf("service: population %d exceeds the int32 client id space", clients)
	}
	w := &ClosedLoop{n: n, clients: clients, thinkMin: thinkMin, thinkMax: thinkMax,
		wheel: make([][]int32, thinkMax+2)}
	for c := 0; c < clients; c++ {
		slot := c % (thinkMax + 1)
		w.wheel[slot] = append(w.wheel[slot], int32(c))
	}
	return w, nil
}

// MustClosedLoop is NewClosedLoop that panics on error.
func MustClosedLoop(n, clients, thinkMin, thinkMax int) *ClosedLoop {
	w, err := NewClosedLoop(n, clients, thinkMin, thinkMax)
	if err != nil {
		panic(err)
	}
	return w
}

// Name implements Workload.
func (w *ClosedLoop) Name() string {
	return fmt.Sprintf("closed[clients=%d,think=%d..%d]", w.clients, w.thinkMin, w.thinkMax)
}

// Clients implements Workload.
func (w *ClosedLoop) Clients() int { return w.clients }

// Arrivals implements Workload: drain this tick's wheel slot.
func (w *ClosedLoop) Arrivals(t int64, _ *rand.Rand, emit func(int32, int32)) {
	slot := int(t % int64(len(w.wheel)))
	for _, c := range w.wheel[slot] {
		emit(c, int32(int(c)%w.n))
	}
	w.wheel[slot] = w.wheel[slot][:0]
}

// Completed implements Workload: draw a think time and re-arm the wheel.
// The wake distance 1+think is at most thinkMax+1 < len(wheel), so the
// slot cannot collide with a not-yet-drained earlier tick.
func (w *ClosedLoop) Completed(client int32, _ int32, t int64, rng *rand.Rand) {
	think := w.thinkMin
	if w.thinkMax > w.thinkMin {
		think += rng.Intn(w.thinkMax - w.thinkMin + 1)
	}
	slot := (t + 1 + int64(think)) % int64(len(w.wheel))
	w.wheel[slot] = append(w.wheel[slot], client)
}

var _ Workload = (*ClosedLoop)(nil)

// maxOpenRate bounds the per-tick arrival rate of the open-loop process:
// the inverse-transform Poisson sampler multiplies uniforms against
// e^(−λ), which underflows long before this bound but degrades in cost
// linearly with λ; 64 arrivals per tick already saturates any lock whose
// capacity is a handful.
const maxOpenRate = 64

// OpenLoop is the unbounded-population workload: a Poisson-like number of
// fresh clients (mean Rate) arrives each tick, each at an independently
// drawn vertex.
type OpenLoop struct {
	n    int
	rate float64
	next int32
}

// NewOpenLoop builds an open-loop arrival process over n vertices with
// mean rate arrivals per tick (0 < rate ≤ 64).
func NewOpenLoop(n int, rate float64) (*OpenLoop, error) {
	if n < 1 {
		return nil, fmt.Errorf("service: open loop needs n ≥ 1, got %d", n)
	}
	if rate <= 0 || rate > maxOpenRate {
		return nil, fmt.Errorf("service: open-loop rate %v outside (0, %d]", rate, maxOpenRate)
	}
	return &OpenLoop{n: n, rate: rate}, nil
}

// MustOpenLoop is NewOpenLoop that panics on error.
func MustOpenLoop(n int, rate float64) *OpenLoop {
	w, err := NewOpenLoop(n, rate)
	if err != nil {
		panic(err)
	}
	return w
}

// Name implements Workload.
func (w *OpenLoop) Name() string { return fmt.Sprintf("open[rate=%.2f]", w.rate) }

// Clients implements Workload: the population is unbounded.
func (w *OpenLoop) Clients() int { return 0 }

// Arrivals implements Workload.
func (w *OpenLoop) Arrivals(_ int64, rng *rand.Rand, emit func(int32, int32)) {
	for k := poisson(rng, w.rate); k > 0; k-- {
		emit(w.next, int32(rng.Intn(w.n)))
		w.next++
	}
}

// Completed implements Workload: open-loop clients leave after service.
func (w *OpenLoop) Completed(int32, int32, int64, *rand.Rand) {}

var _ Workload = (*OpenLoop)(nil)

// poisson draws a Poisson(λ) count by Knuth's inverse-transform method —
// exact, allocation-free, and O(λ) per draw, which the maxOpenRate bound
// keeps cheap.
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
