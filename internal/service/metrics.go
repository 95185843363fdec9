package service

// The metrics pipeline: two accumulators (a resettable window and the
// running totals) feed Snapshot, which derives the service-level summary —
// grant latency percentiles, grants/tick, Jain fairness, starvation ages —
// on top of internal/stats. Pre/post-fault comparisons (E13's latency
// CDFs, the storm reports) are two window snapshots around an InjectBurst.

import (
	"fmt"
	"sort"
	"strings"

	"specstab/internal/stats"
)

// maxLatencySamples bounds each accumulator's latency sample set: long
// soaks (chained storm campaigns, the Dijkstra rate of ~1 grant/tick)
// would otherwise grow the totals slice without bound. When the bound is
// hit the sample set is decimated in place and the keep stride doubles —
// a deterministic uniform-in-time subsample, so percentiles stay
// representative and fingerprints stay worker-invariant.
const maxLatencySamples = 1 << 18

// counters is one metrics accumulation period.
type counters struct {
	ticks       int64
	requests    int64
	grants      int64
	latencies   []float64 // per-grant ticks waited (stride-decimated)
	latStride   int64     // keep every latStride-th grant (≥ 1)
	latSkip     int64     // grants since the last kept sample
	privTicks   int64     // Σ per-tick privilege-set sizes
	wastedIdle  int64     // privileged vertex-ticks with an empty queue
	wastedBusy  int64     // privileged vertex-ticks blocked by capacity
	unsafeTicks int64     // ticks with more privileges than capacity
}

func (c *counters) grant(latency float64) {
	c.grants++
	if c.latStride == 0 {
		c.latStride = 1
	}
	c.latSkip++
	if c.latSkip < c.latStride {
		return
	}
	c.latSkip = 0
	c.latencies = append(c.latencies, latency)
	if len(c.latencies) >= maxLatencySamples {
		w := 0
		for i := 1; i < len(c.latencies); i += 2 {
			c.latencies[w] = c.latencies[i]
			w++
		}
		c.latencies = c.latencies[:w]
		c.latStride *= 2
	}
}

func (c *counters) reset() {
	*c = counters{latencies: c.latencies[:0]}
}

// Metrics is a service-level measurement over one period.
type Metrics struct {
	// Ticks is the period length; Requests and Grants count arrivals and
	// critical sections served within it.
	Ticks    int64
	Requests int64
	Grants   int64
	// GrantsPerTick is the served throughput (grants / ticks).
	GrantsPerTick float64
	// LatP50/P95/P99/Max summarize the grant latency distribution in
	// ticks waited (NaN-free: all zero when no grant was served).
	LatP50, LatP95, LatP99, LatMax float64
	// PrivTicks counts privilege observations (vertex-ticks);
	// WastedIdle of them found no waiting client, WastedBusy were blocked
	// by the capacity bound.
	PrivTicks  int64
	WastedIdle int64
	WastedBusy int64
	// UnsafeTicks counts ticks on which the protocol exposed more
	// privileges than the service capacity — the stabilization gap as
	// clients would observe it. Zero once legitimate.
	UnsafeTicks int64
	// JainVertices is Jain's fairness index over per-vertex grant counts
	// (1 = perfectly even service); JainClients the same over per-client
	// counts for bounded (closed-loop) populations, else 0.
	JainVertices float64
	JainClients  float64
	// Backlog is the number of requests still waiting at snapshot time;
	// StarveMax and StarveP95 are the worst and 95th-percentile ages (in
	// ticks) among them — the per-client starvation measure.
	Backlog   int64
	StarveMax float64
	StarveP95 float64
}

// Window returns the metrics accumulated since the last ResetWindow
// (or construction). Backlog/starvation/fairness are properties of the
// live state and are identical in Window and Totals snapshots.
func (s *Sim) Window() Metrics { return s.snapshot(&s.win) }

// Totals returns the metrics accumulated since construction.
func (s *Sim) Totals() Metrics { return s.snapshot(&s.tot) }

// ResetWindow starts a fresh measurement window.
func (s *Sim) ResetWindow() { s.win.reset() }

func (s *Sim) snapshot(c *counters) Metrics {
	m := Metrics{
		Ticks:       c.ticks,
		Requests:    c.requests,
		Grants:      c.grants,
		PrivTicks:   c.privTicks,
		WastedIdle:  c.wastedIdle,
		WastedBusy:  c.wastedBusy,
		UnsafeTicks: c.unsafeTicks,
		Backlog:     s.Backlog(),
	}
	if c.ticks > 0 {
		m.GrantsPerTick = float64(c.grants) / float64(c.ticks)
	}
	if len(c.latencies) > 0 {
		sorted := append([]float64(nil), c.latencies...)
		sort.Float64s(sorted)
		m.LatP50 = stats.Percentile(sorted, 0.50)
		m.LatP95 = stats.Percentile(sorted, 0.95)
		m.LatP99 = stats.Percentile(sorted, 0.99)
		m.LatMax = sorted[len(sorted)-1]
	}
	m.JainVertices = jainInt64(s.vGrants)
	if s.cGrants != nil {
		m.JainClients = jainInt32(s.cGrants)
	}
	ages := s.starvationAges()
	if len(ages) > 0 {
		sort.Float64s(ages)
		m.StarveMax = ages[len(ages)-1]
		m.StarveP95 = stats.Percentile(ages, 0.95)
	}
	return m
}

// LatencyCDF returns the given quantiles of the window's grant latency
// distribution, for pre/post-fault CDF tables. ok is false when the
// window served no grant.
func (s *Sim) LatencyCDF(quantiles []float64) ([]float64, bool) {
	if len(s.win.latencies) == 0 {
		return nil, false
	}
	sorted := append([]float64(nil), s.win.latencies...)
	sort.Float64s(sorted)
	out := make([]float64, len(quantiles))
	for i, q := range quantiles {
		out[i] = stats.Percentile(sorted, q)
	}
	return out, true
}

// starvationAges returns the waiting ages (ticks) of all queued requests.
func (s *Sim) starvationAges() []float64 {
	out := make([]float64, 0, s.adapter.Waiting())
	for v := 0; v < s.n; v++ {
		for _, r := range s.adapter.Queue(v) {
			out = append(out, float64(s.tick-r.arrival))
		}
	}
	return out
}

// jainInt64 is Jain's fairness index (Σx)² / (n·Σx²) over the non-empty
// sample; 1 when all equal, →1/n under maximal skew. Zero-valued samples
// (nobody served yet) report 0.
func jainInt64(xs []int64) float64 {
	var sum, sq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sq += f * f
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

func jainInt32(xs []int32) float64 {
	var sum, sq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sq += f * f
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Fingerprint hashes the complete service state — tick, counters, queues,
// active grants, privilege set, per-vertex/client grant counts and the
// protocol configuration — with FNV-1a. The worker-invariance differential
// test asserts equal fingerprints for every engine worker count; any
// timing-dependent divergence anywhere in the stack changes the hash.
func (s *Sim) Fingerprint() uint64 {
	h := newFNV()
	h.int64(s.tick)
	h.int64(s.Backlog())
	for _, c := range []*counters{&s.win, &s.tot} {
		h.int64(c.ticks)
		h.int64(c.requests)
		h.int64(c.grants)
		h.int64(c.privTicks)
		h.int64(c.wastedIdle)
		h.int64(c.wastedBusy)
		h.int64(c.unsafeTicks)
		for _, l := range c.latencies {
			h.int64(int64(l))
		}
	}
	for v := 0; v < s.n; v++ {
		q := s.adapter.Queue(v)
		h.int64(int64(len(q)))
		for _, r := range q {
			h.int64(int64(r.client))
			h.int64(r.arrival)
		}
	}
	for _, a := range s.adapter.Active() {
		h.int64(int64(a.V))
		h.int64(int64(a.Data.client))
		h.int64(a.End)
	}
	for _, v := range s.privList {
		h.int64(int64(v))
	}
	for _, g := range s.vGrants {
		h.int64(g)
	}
	for _, g := range s.cGrants {
		h.int64(int64(g))
	}
	for _, x := range s.eng.Current() {
		h.int64(int64(x))
	}
	return uint64(*h)
}

// fnv is a minimal FNV-1a accumulator over int64 words.
type fnv uint64

func newFNV() *fnv {
	h := fnv(14695981039346656037)
	return &h
}

func (h *fnv) int64(x int64) {
	u := uint64(x)
	for i := 0; i < 8; i++ {
		*h = (*h ^ fnv(u&0xff)) * 1099511628211
		u >>= 8
	}
}

// Render formats a Metrics for the CLI drivers.
func (m Metrics) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ticks %d  requests %d  grants %d  grants/tick %.4f\n",
		m.Ticks, m.Requests, m.Grants, m.GrantsPerTick)
	fmt.Fprintf(&b, "latency ticks: p50 %.0f  p95 %.0f  p99 %.0f  max %.0f\n",
		m.LatP50, m.LatP95, m.LatP99, m.LatMax)
	fmt.Fprintf(&b, "privileges: %d observed, %d idle-wasted, %d capacity-blocked, %d unsafe ticks\n",
		m.PrivTicks, m.WastedIdle, m.WastedBusy, m.UnsafeTicks)
	fmt.Fprintf(&b, "fairness: jain(vertices) %.3f  jain(clients) %.3f\n", m.JainVertices, m.JainClients)
	fmt.Fprintf(&b, "backlog %d waiting  starvation age: p95 %.0f  max %.0f\n",
		m.Backlog, m.StarveP95, m.StarveMax)
	return b.String()
}
