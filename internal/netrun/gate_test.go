package netrun

// The gate driven directly, without sockets: scripted acquires, cancels,
// releases and drains around step calls over hand-built configurations
// of a 12-vertex Dijkstra ring. Every reply, the gate's occupancy after
// each operation and the final status counters go into one transcript,
// pinned against a golden. The script covers several privileges at once
// (the unsafe and post-legitimacy counters), peer-reported occupancy
// (capacity blocking), lease expiry, a grant tying with its waiter's
// deadline, and a canceled waiter at the head of its vertex's queue.

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"specstab/internal/dijkstra"
	"specstab/internal/sim"
)

// gateRingN and gateRingK size the scripted ring: Dijkstra's protocol on
// 12 vertices with 13 counter values.
const (
	gateRingN = 12
	gateRingK = 13
)

// gateScript drives one gate and records a transcript of everything it
// says back.
type gateScript struct {
	t      *testing.T
	g      *gate
	lock   *dijkstra.Protocol
	out    strings.Builder
	names  []string // parked waiters, in acquire order
	parked map[string]*waiter
	tokens map[string]string
}

func newGateScript(t *testing.T, id, lo, hi, capacity int, lease int64) *gateScript {
	lock := dijkstra.MustNew(gateRingN, gateRingK)
	return &gateScript{
		t:      t,
		g:      newGate(id, 3, gateRingN, lo, hi, capacity, lease, lock),
		lock:   lock,
		parked: map[string]*waiter{},
		tokens: map[string]string{},
	}
}

func (s *gateScript) logf(format string, args ...any) {
	fmt.Fprintf(&s.out, format, args...)
	s.out.WriteByte('\n')
}

func (s *gateScript) json(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		s.t.Fatal(err)
	}
	return string(b)
}

// poll collects every reply the gate has sent since the last poll, in
// acquire order, then logs the gate's occupancy.
func (s *gateScript) poll() {
	for _, name := range s.names {
		w := s.parked[name]
		select {
		case rep := <-w.ch:
			s.logf("  %s <- %s", name, s.json(rep))
			if rep.Granted {
				s.tokens[name] = rep.Token
			}
		default:
		}
	}
	s.logf("  active=%d idle=%v", s.g.activeCount(), s.g.idle())
}

func (s *gateScript) acquire(name, lock string, wait int) {
	rep, w := s.g.acquire(AcquireRequest{Lock: lock, Client: name, WaitRounds: wait})
	if w == nil {
		s.logf("acquire %s %q wait=%d -> %s", name, lock, wait, s.json(rep))
		return
	}
	s.logf("acquire %s %q wait=%d -> parked", name, lock, wait)
	s.names = append(s.names, name)
	s.parked[name] = w
}

func (s *gateScript) cancel(name string) {
	s.logf("cancel %s", name)
	s.g.cancel(s.parked[name])
}

// release returns the token granted to name (or name itself when it
// never held one, which the gate must refuse).
func (s *gateScript) release(name string) {
	tok, ok := s.tokens[name]
	if !ok {
		tok = name
	}
	s.logf("release %s %q -> %s", name, tok, s.json(s.g.release(ReleaseRequest{Token: tok})))
	s.poll()
}

// step commits round over a configuration whose privileged vertices are
// exactly privs, with the given peer frame counts.
func (s *gateScript) step(round int64, privs []int, peerActive ...uint32) {
	s.logf("step %d privs=%v peers=%v", round, privs, peerActive)
	s.g.step(round, s.config(privs), peerActive)
	s.poll()
}

func (s *gateScript) drain() {
	s.logf("drain")
	s.g.drain()
	s.poll()
}

func (s *gateScript) fill() {
	var rep StatusReply
	s.g.fill(&rep)
	s.logf("status %s", s.json(rep))
}

// config builds a ring configuration privileged exactly at privs (sorted,
// non-empty): vertex v > 0 is privileged iff x_v ≠ x_{v−1}, so each such
// vertex steps the counter; vertex 0 is privileged iff x_0 = x_{n−1}, so
// when it is listed the last step closes the counter back to x_0 (mod K).
func (s *gateScript) config(privs []int) sim.Config[int] {
	cfg := make(sim.Config[int], gateRingN)
	want := make([]bool, gateRingN)
	for _, v := range privs {
		want[v] = true
	}
	last := -1
	for v := 1; v < gateRingN; v++ {
		cfg[v] = cfg[v-1]
		if want[v] {
			cfg[v] = (cfg[v] + 1) % gateRingK
			last = v
		}
	}
	if want[0] && last > 0 {
		for u := last; u < gateRingN; u++ {
			cfg[u] = (cfg[u] + gateRingK - cfg[gateRingN-1]) % gateRingK
		}
	}
	for v := 0; v < gateRingN; v++ {
		if s.lock.Privileged(cfg, v) != want[v] {
			s.t.Fatalf("config %v for privileges %v: vertex %d privileged=%v", cfg, privs, v, !want[v])
		}
	}
	return cfg
}

// TestGateGolden pins the gate's replies and counters over a capacity-1
// shard in the middle of the ring and a capacity-2 shard holding vertex
// 0.
func TestGateGolden(t *testing.T) {
	t.Parallel()
	// Node 1 of 3 owns vertices [4, 8); capacity 1, 4-round leases.
	s := newGateScript(t, 1, 4, 8, 1, 4)
	s.acquire("x1", "vertex:0", 0)  // owned by node 0
	s.acquire("x2", "vertex:12", 0) // no such vertex
	s.acquire("x3", "", 0)          // no lock name
	s.acquire("a", "vertex:5", 10)
	s.acquire("b", "vertex:5", 2)
	s.acquire("c", "vertex:6", 3)
	s.acquire("d", "vertex:4", 1)
	s.cancel("d") // head of vertex 4's queue, never granted
	s.acquire("e", "vertex:4", 20)
	s.step(1, []int{5, 9}, 0, 0) // a granted while two privileges show
	s.release("a")
	s.release("bogus")
	s.step(2, []int{4, 5}, 1, 0) // a peer holds the only slot; b times out
	s.step(3, []int{6}, 0, 0)    // legitimate; c granted on its deadline round
	s.release("c")
	s.acquire("f", "vertex:7", 100)
	s.step(4, []int{4, 10}, 0, 0) // e granted past canceled d, unsafe after legitimacy
	s.step(5, []int{7}, 0, 0)     // e holds the slot
	s.step(8, []int{7}, 0, 0)     // e's lease ends; f granted in the same round
	s.release("e")                // reclaimed already
	s.acquire("g", "vertex:5", 0) // default wait
	s.acquire("h", "vertex:5", -3)
	s.step(9, []int{5}, 0, 1) // f plus one peer grant fill the slot
	s.release("f")
	s.step(10, []int{5}, 0, 1) // the peer alone fills it
	s.step(11, []int{5, 6, 7}, 0, 0)
	s.drain()
	s.acquire("i", "vertex:6", 5)
	s.fill()
	s.release("g")
	s.fill()

	// Node 0 of 3 owns vertices [0, 4); capacity 2, 3-round leases.
	z := newGateScript(t, 0, 0, 4, 2, 3)
	z.acquire("p", "vertex:1", 5)
	z.acquire("q", "vertex:3", 5)
	z.acquire("r", "vertex:0", 5)
	z.acquire("s", "vertex:1", 5)
	z.step(1, []int{0, 1, 3}, 0, 0) // r and p fill both slots, q waits
	z.step(2, []int{1, 3}, 0, 0)
	z.release("r")
	z.step(3, []int{1, 3}, 1, 0) // a peer grant takes the freed slot
	z.step(4, []int{1, 3}, 0, 0) // p's lease ends; s and q granted together
	z.release("p")
	z.step(6, []int{2}, 0, 0)
	z.step(7, []int{5}, 0, 0) // both leases end
	z.fill()

	got := s.out.String() + "--\n" + z.out.String()
	if got != gateGolden {
		t.Errorf("gate transcript changed:\n%s\nwant:\n%s", got, gateGolden)
	}
}

// TestGateWaitDeadlineSaturates: a waitRounds near the int64 horizon
// must wait, not wrap the deadline negative and time out on the next
// round.
func TestGateWaitDeadlineSaturates(t *testing.T) {
	t.Parallel()
	s := newGateScript(t, 1, 4, 8, 1, 4)
	s.step(5, []int{9}, 0, 0)
	s.acquire("w", "vertex:5", math.MaxInt)
	for r := int64(6); r < 10; r++ {
		s.step(r, []int{9}, 0, 0)
	}
	s.step(10, []int{5}, 0, 0)
	want := `step 5 privs=[9] peers=[0 0]
  active=0 idle=true
acquire w "vertex:5" wait=9223372036854775807 -> parked
step 6 privs=[9] peers=[0 0]
  active=0 idle=false
step 7 privs=[9] peers=[0 0]
  active=0 idle=false
step 8 privs=[9] peers=[0 0]
  active=0 idle=false
step 9 privs=[9] peers=[0 0]
  active=0 idle=false
step 10 privs=[5] peers=[0 0]
  w <- {"granted":true,"token":"1.5.1","vertex":5,"node":1,"round":10,"leaseRound":14}
  active=1 idle=false
`
	if got := s.out.String(); got != want {
		t.Errorf("transcript:\n%s\nwant:\n%s", got, want)
	}
}

const gateGolden = `acquire x1 "vertex:0" wait=0 -> {"granted":false,"vertex":0,"node":0,"round":0,"reason":"not-owner"}
acquire x2 "vertex:12" wait=0 -> {"granted":false,"vertex":-1,"node":1,"round":0,"reason":"netrun: lock \"vertex:12\" addresses no vertex in [0, 12)"}
acquire x3 "" wait=0 -> {"granted":false,"vertex":-1,"node":1,"round":0,"reason":"netrun: empty lock name"}
acquire a "vertex:5" wait=10 -> parked
acquire b "vertex:5" wait=2 -> parked
acquire c "vertex:6" wait=3 -> parked
acquire d "vertex:4" wait=1 -> parked
cancel d
acquire e "vertex:4" wait=20 -> parked
step 1 privs=[5 9] peers=[0 0]
  a <- {"granted":true,"token":"1.5.1","vertex":5,"node":1,"round":1,"leaseRound":5}
  active=1 idle=false
release a "1.5.1" -> {"released":true,"round":1}
  active=0 idle=false
release bogus "bogus" -> {"released":false,"round":1,"reason":"unknown token (lease expired?)"}
  active=0 idle=false
step 2 privs=[4 5] peers=[1 0]
  b <- {"granted":false,"vertex":5,"node":1,"round":2,"reason":"timeout"}
  active=0 idle=false
step 3 privs=[6] peers=[0 0]
  c <- {"granted":true,"token":"1.6.2","vertex":6,"node":1,"round":3,"leaseRound":7}
  active=1 idle=false
release c "1.6.2" -> {"released":true,"round":3}
  active=0 idle=false
acquire f "vertex:7" wait=100 -> parked
step 4 privs=[4 10] peers=[0 0]
  e <- {"granted":true,"token":"1.4.3","vertex":4,"node":1,"round":4,"leaseRound":8}
  active=1 idle=false
step 5 privs=[7] peers=[0 0]
  active=1 idle=false
step 8 privs=[7] peers=[0 0]
  f <- {"granted":true,"token":"1.7.4","vertex":7,"node":1,"round":8,"leaseRound":12}
  active=1 idle=false
release e "1.4.3" -> {"released":false,"round":8,"reason":"unknown token (lease expired?)"}
  active=1 idle=false
acquire g "vertex:5" wait=0 -> parked
acquire h "vertex:5" wait=-3 -> parked
step 9 privs=[5] peers=[0 1]
  active=1 idle=false
release f "1.7.4" -> {"released":true,"round":9}
  active=0 idle=false
step 10 privs=[5] peers=[0 1]
  active=0 idle=false
step 11 privs=[5 6 7] peers=[0 0]
  g <- {"granted":true,"token":"1.5.5","vertex":5,"node":1,"round":11,"leaseRound":15}
  active=1 idle=false
drain
  h <- {"granted":false,"vertex":5,"node":1,"round":11,"reason":"draining"}
  active=1 idle=false
acquire i "vertex:6" wait=5 -> {"granted":false,"vertex":6,"node":1,"round":11,"reason":"draining"}
status {"node":0,"nodes":0,"protocol":"","n":0,"round":0,"fp":"","stalled":false,"draining":true,"backlog":0,"active":1,"grants":5,"released":3,"leaseExpired":1,"unsafeGrants":3,"unsafeGrantsPostLegit":2,"legitRound":3}
release g "1.5.5" -> {"released":true,"round":11}
  active=0 idle=true
status {"node":0,"nodes":0,"protocol":"","n":0,"round":0,"fp":"","stalled":false,"draining":true,"backlog":0,"active":0,"grants":5,"released":4,"leaseExpired":1,"unsafeGrants":3,"unsafeGrantsPostLegit":2,"legitRound":3}
--
acquire p "vertex:1" wait=5 -> parked
acquire q "vertex:3" wait=5 -> parked
acquire r "vertex:0" wait=5 -> parked
acquire s "vertex:1" wait=5 -> parked
step 1 privs=[0 1 3] peers=[0 0]
  p <- {"granted":true,"token":"0.1.2","vertex":1,"node":0,"round":1,"leaseRound":4}
  r <- {"granted":true,"token":"0.0.1","vertex":0,"node":0,"round":1,"leaseRound":4}
  active=2 idle=false
step 2 privs=[1 3] peers=[0 0]
  active=2 idle=false
release r "0.0.1" -> {"released":true,"round":2}
  active=1 idle=false
step 3 privs=[1 3] peers=[1 0]
  active=1 idle=false
step 4 privs=[1 3] peers=[0 0]
  q <- {"granted":true,"token":"0.3.4","vertex":3,"node":0,"round":4,"leaseRound":7}
  s <- {"granted":true,"token":"0.1.3","vertex":1,"node":0,"round":4,"leaseRound":7}
  active=2 idle=false
release p "0.1.2" -> {"released":false,"round":4,"reason":"unknown token (lease expired?)"}
  active=2 idle=false
step 6 privs=[2] peers=[0 0]
  active=2 idle=false
step 7 privs=[5] peers=[0 0]
  active=0 idle=true
status {"node":0,"nodes":0,"protocol":"","n":0,"round":0,"fp":"","stalled":false,"draining":false,"backlog":0,"active":0,"grants":4,"released":1,"leaseExpired":3,"unsafeGrants":2,"unsafeGrantsPostLegit":0,"legitRound":6}
`
