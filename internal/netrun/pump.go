package netrun

// Per-peer receive pumps. Each peer connection gets one goroutine that
// blocks on the socket, decodes frames into a pair of recycled scratch
// RoundFrames, and hands them to the barrier through a bounded mailbox.
// The barrier (node.go collectRound) then takes every peer's round-r
// frame concurrently — its cost is the max, not the sum, of peer
// latencies — and an early round-r+1 frame is decoded and parked in the
// mailbox while round r is still committing.
//
// The mailbox is self-limiting without explicit flow control: BSP
// lockstep means peer j can send round r+1 only after committing round
// r, which needs this node's round-r frame, which is sent only after
// this node committed r-1 — so at most the frames for rounds r and r+1
// can be in flight here before this node commits r. mailboxDepth = 2
// scratch frames therefore never starve the pump in a healthy run, and
// a pump blocked on a free slot is a peer running impossibly far ahead,
// which the barrier will call out as a broken round anyway.
//
// The pump checks only the codec and the frame kind. What a round frame
// claims — sender, round, fingerprint, selection — is checked by the
// round core at commit (core.go): a prefetched round-r+1 frame carries
// the fingerprint of a round this node has not committed yet, so
// judging it in the pump would race the commit. See DESIGN.md §13.
//
// This file and transport.go are the only netrun files allowed raw
// goroutines and wall-clock calls (internal/lint policy): the pump
// goroutine parks in blocking reads, and the barrier's stall patience
// lives here as a reusable timer so node.go stays clock-free.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// mailboxDepth is how many decoded frames a pump may hold undelivered:
// the barrier's current round and one prefetched round.
const mailboxDepth = 2

// errBarrierTimeout is the stall the barrier counts against
// RecvRetries; it mirrors the read-deadline timeouts of the old
// sequential barrier.
var errBarrierTimeout = errors.New("netrun: timed out waiting for the peer's round frame")

// rxMsg is one pump→barrier hand-off: a round frame, a clean bye, or a
// terminal error. After err or bye the pump has exited.
type rxMsg struct {
	f   *RoundFrame
	bye bool
	err error
}

// rxPump owns the receive side of one peer connection.
type rxPump struct {
	peer int
	c    *Conn
	// ready is sized so the pump can park mailboxDepth frames plus one
	// terminal notice without ever blocking on a vanished barrier.
	ready chan rxMsg
	// free recycles the scratch frames: barrier → pump after commit.
	free chan *RoundFrame
	stop chan struct{}
	done chan struct{}
	// bytesIn is the owning node's wire-ingress counter (prefix
	// included), shared across its pumps.
	bytesIn *atomic.Int64
}

// startRxPump launches the receive pump for peer j's connection.
func startRxPump(peer int, c *Conn, bytesIn *atomic.Int64) *rxPump {
	p := &rxPump{
		peer:    peer,
		c:       c,
		ready:   make(chan rxMsg, mailboxDepth+1),
		free:    make(chan *RoundFrame, mailboxDepth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		bytesIn: bytesIn,
	}
	for i := 0; i < mailboxDepth; i++ {
		p.free <- new(RoundFrame)
	}
	go p.loop()
	return p
}

// loop reads, decodes and delivers frames until a terminal condition:
// a read error (the barrier decides whether that peer was stalled or
// gone), a bye, a malformed or mid-round frame, or stop. Decoding
// borrows a recycled scratch frame so the steady state allocates
// nothing.
func (p *rxPump) loop() {
	defer close(p.done)
	var scratch Frame
	for {
		payload, err := p.c.RecvBlocking()
		if err != nil {
			p.deliver(rxMsg{err: err})
			return
		}
		p.bytesIn.Add(int64(len(payload)) + 4)
		var slot *RoundFrame
		select {
		case slot = <-p.free:
		case <-p.stop:
			return
		}
		scratch.Round = *slot
		if err := DecodeFrameInto(&scratch, payload); err != nil {
			p.deliver(rxMsg{err: err})
			return
		}
		switch scratch.Kind {
		case KindBye:
			p.deliver(rxMsg{bye: true})
			return
		case KindRound:
			*slot = scratch.Round
			if !p.deliver(rxMsg{f: slot}) {
				return
			}
		default:
			p.deliver(rxMsg{err: fmt.Errorf("netrun: peer %d sent a %s frame mid-round", p.peer, scratch.Kind)})
			return
		}
	}
}

// deliver parks one message in the mailbox; false means the pump was
// stopped instead.
func (p *rxPump) deliver(m rxMsg) bool {
	select {
	case p.ready <- m:
		return true
	case <-p.stop:
		return false
	}
}

// await takes the pump's next message, waiting at most d; false means
// the wait timed out (one barrier stall). The fast path is a
// non-blocking take — in the steady state the frame is already parked —
// so the shared timer is armed only when the barrier actually waits.
func (p *rxPump) await(t *time.Timer, d time.Duration) (rxMsg, bool) {
	select {
	case m := <-p.ready:
		return m, true
	default:
	}
	t.Reset(d)
	select {
	case m := <-p.ready:
		t.Stop()
		return m, true
	case <-t.C:
		return rxMsg{}, false
	}
}

// recycle hands a consumed scratch frame back to the pump after commit.
func (p *rxPump) recycle(f *RoundFrame) {
	select {
	case p.free <- f:
	default:
		// The pump is gone; the frame is garbage now.
	}
}

// halt stops the pump. The caller must close the connection too —
// that is what unblocks a pump parked in a read.
func (p *rxPump) halt() { close(p.stop) }

// newStallTimer builds the barrier's reusable stall timer, disarmed.
// Go 1.24 timer semantics make Reset/Stop safe without channel drains.
func newStallTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}
