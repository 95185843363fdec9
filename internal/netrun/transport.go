package netrun

// The peer transport: length-prefixed frames over TCP with deadlines on
// every read and write, bounded dial retry with linear backoff, and a
// per-connection write pump so one slow receiver cannot wedge a sender's
// round loop. This file (together with pump.go and httpd.go) is the
// runtime's entire wall-clock surface — everything above it reasons in
// rounds, and the speclint policy pins that boundary (internal/lint:
// netrun is audited; transport.go, pump.go and httpd.go carry the
// exemptions).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Transport defaults, overridable per node (Config). The IO timeout is
// the barrier's patience quantum: a wait that exceeds it counts one
// stall, and RecvRetries stalls abandon the round.
const (
	defaultIOTimeout   = 2 * time.Second
	defaultDialRetries = 40
	defaultDialBackoff = 25 * time.Millisecond
	// sendDepth is the write pump's queue depth; the round loop enqueues
	// at most one frame per peer per round, so depth covers transient
	// receiver lag without unbounded buffering.
	sendDepth = 8
)

// wireBuf is one pooled, refcounted encode buffer: the round loop
// encodes a frame once (length prefix included) and fans the same bytes
// out to every peer's write pump, each holding one reference. The last
// release — normally a pump, after the wire write — returns the buffer
// to the pool, so the steady state encodes every round into memory it
// already owns. Acquire with acquireWire (refs=1, the caller's), retain
// once per additional holder, release symmetric.
type wireBuf struct {
	b    []byte
	refs atomic.Int32
}

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

// acquireWire returns an empty buffer holding one reference for the
// caller.
func acquireWire() *wireBuf {
	w := wirePool.Get().(*wireBuf)
	w.b = w.b[:0]
	w.refs.Store(1)
	return w
}

func (w *wireBuf) retain() { w.refs.Add(1) }

func (w *wireBuf) release() {
	if w.refs.Add(-1) == 0 {
		wirePool.Put(w)
	}
}

// Conn is one framed peer connection. Reads happen on a single owner
// goroutine (the handshake, then the receive pump) through a reusable
// buffer; writes go through a pump goroutine fed by a bounded queue of
// pooled buffers, so Send never blocks the round loop for longer than it
// takes the queue to drain.
type Conn struct {
	nc      net.Conn
	br      *bufio.Reader
	timeout time.Duration
	rbuf    []byte // reusable receive payload buffer (single reader)
	rdArmed bool   // a read deadline is set and must be cleared for blocking reads

	out  chan *wireBuf
	quit chan struct{}
	done chan struct{}

	// Write-pump scratch (pump goroutine only): the drained batch, the
	// stable iovec backing, and the consumable net.Buffers view writev
	// advances. Keeping the view a field stops it escaping per write.
	batch []*wireBuf
	vecs  [][]byte
	vb    net.Buffers

	mu     sync.Mutex
	err    error
	closed bool
}

// newConn wraps an established TCP connection and starts its write pump.
func newConn(nc net.Conn, timeout time.Duration) *Conn {
	if timeout <= 0 {
		timeout = defaultIOTimeout
	}
	c := &Conn{
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 1<<16),
		timeout: timeout,
		rbuf:    make([]byte, 4096),
		out:     make(chan *wireBuf, sendDepth),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.pump()
	return c
}

// pump drains the send queue onto the socket in batches: everything
// already queued goes out under one deadline arm and one syscall (a
// plain Write for a single frame, writev via net.Buffers for several).
// The first write error poisons the connection: subsequent Sends fail
// fast with it instead of queueing into the void. On Close it flushes
// what is already queued (a just-enqueued bye must reach the peer),
// then exits. Buffers are released here, after the wire write — for a
// fanned-out round frame the pump of the slowest peer is the one that
// returns the encode buffer to the pool.
func (c *Conn) pump() {
	defer close(c.done)
	c.batch = make([]*wireBuf, 0, sendDepth)
	c.vecs = make([][]byte, 0, sendDepth)
	for {
		select {
		case w := <-c.out:
			if !c.drain(w) {
				return
			}
		case <-c.quit:
			for {
				select {
				case w := <-c.out:
					if !c.drain(w) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// drain gathers w plus whatever else is already queued and writes the
// batch with writeBatch, releasing every buffer afterwards regardless
// of outcome.
func (c *Conn) drain(w *wireBuf) bool {
	batch := append(c.batch[:0], w)
gather:
	for len(batch) < cap(batch) {
		select {
		case more := <-c.out:
			batch = append(batch, more)
		default:
			break gather
		}
	}
	ok := c.writeBatch(batch)
	for i, bw := range batch {
		bw.release()
		batch[i] = nil
	}
	return ok
}

// writeBatch puts one batch of wire frames on the socket under a single
// deadline arm. Payloads are already length-prefixed (AppendWireFrame),
// so one frame is one plain Write and several frames are one vectored
// write — there is no separate prefix syscall to pay for, or to tear on
// a mid-frame kill.
func (c *Conn) writeBatch(batch []*wireBuf) bool {
	if err := c.nc.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		c.fail(fmt.Errorf("netrun: arming write deadline: %w", err))
		return false
	}
	if len(batch) == 1 {
		if _, err := c.nc.Write(batch[0].b); err != nil {
			c.fail(fmt.Errorf("netrun: writing frame: %w", err))
			return false
		}
		return true
	}
	vecs := c.vecs[:0]
	for _, w := range batch {
		vecs = append(vecs, w.b)
	}
	// WriteTo consumes the view (and may reslice its elements on short
	// writes): c.vb is rebuilt from the stable c.vecs backing per batch,
	// so only the view is advanced.
	c.vb = net.Buffers(vecs)
	if _, err := c.vb.WriteTo(c.nc); err != nil {
		c.fail(fmt.Errorf("netrun: writing frame batch: %w", err))
		return false
	}
	return true
}

// AppendWireFrame appends f's complete wire encoding — the transport's
// 4-byte big-endian length prefix followed by the frame payload — to dst
// and returns the extended slice. Encoding the prefix into the same
// buffer is what lets the write pump put a whole frame on the socket in
// one syscall (and batch several frames into one writev).
func AppendWireFrame(dst []byte, f *Frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := AppendFrame(dst, f)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

// fail records the connection's first error.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// Err returns the connection's first recorded error, if any.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Send enqueues one wire-encoded (length-prefixed) buffer, consuming
// one reference whether or not it succeeds: on success the write pump
// releases it after the wire write, on failure Send releases it here.
// The fast path is a non-blocking enqueue — the queue has headroom in
// the steady state, so no timer is armed (time.After in a select
// allocates a timer per call) unless the pump is actually behind. A
// full queue past the IO timeout, a poisoned connection and a closed
// connection are all errors.
func (c *Conn) Send(w *wireBuf) error {
	if len(w.b)-4 > MaxFrame {
		w.release()
		return fmt.Errorf("netrun: sending %d bytes exceeds MaxFrame %d", len(w.b), MaxFrame)
	}
	if err := c.Err(); err != nil {
		w.release()
		return err
	}
	select {
	case c.out <- w:
		return nil
	default:
	}
	t := time.NewTimer(c.timeout)
	defer t.Stop()
	select {
	case c.out <- w:
		return nil
	case <-c.quit:
		w.release()
		return errors.New("netrun: send on closed connection")
	case <-c.done:
		w.release()
		if err := c.Err(); err != nil {
			return err
		}
		return errors.New("netrun: send on closed connection")
	case <-t.C:
		w.release()
		return fmt.Errorf("netrun: peer not draining writes for %v", c.timeout)
	}
}

// RecvPatient reads one frame payload with an explicit patience window —
// the handshake path, where a peer that has connected may still be
// dialing the rest of the mesh before it answers hellos. Timeout errors
// satisfy net.Error.Timeout(). The returned slice aliases the
// connection's reusable receive buffer and is valid only until the next
// receive on this connection.
func (c *Conn) RecvPatient(d time.Duration) ([]byte, error) { return c.recvWithin(d) }

// RecvBlocking reads one frame with no read deadline: the receive pump
// parks here between frames, and stall patience is the barrier's job
// (a stalled peer leaves the pump blocked; Close unblocks it through
// the socket). Same aliasing rule as RecvPatient.
func (c *Conn) RecvBlocking() ([]byte, error) { return c.recvWithin(0) }

func (c *Conn) recvWithin(d time.Duration) ([]byte, error) {
	// Arm or clear the read deadline only when the mode changes — the
	// receive pump calls this with d=0 every frame, and re-clearing an
	// already-clear deadline is pure timer churn.
	if d > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(d)); err != nil {
			return nil, fmt.Errorf("netrun: arming read deadline: %w", err)
		}
		c.rdArmed = true
	} else if c.rdArmed {
		if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
			return nil, fmt.Errorf("netrun: arming read deadline: %w", err)
		}
		c.rdArmed = false
	}
	// The prefix reads into the head of the persistent receive buffer —
	// a stack array would escape through the io.ReadFull interface call.
	prefix := c.rbuf[:4]
	if _, err := io.ReadFull(c.br, prefix); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n > MaxFrame {
		return nil, fmt.Errorf("netrun: peer announces a %d-byte frame, above MaxFrame %d", n, MaxFrame)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	payload := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return nil, fmt.Errorf("netrun: frame body: %w", err)
	}
	return payload, nil
}

// isTimeout reports whether err is a read deadline expiring — the one
// error class the barrier treats as "slow", not "gone".
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Close shuts the connection down. Safe to call more than once; the
// round loop is the only Sender, so closing the queue here cannot race a
// concurrent Send after closed is set.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	// Let the pump flush queued frames (each bounded by the write
	// deadline) before the socket goes away: a bye enqueued just before
	// Close must reach the peer.
	close(c.quit)
	<-c.done
	return c.nc.Close()
}

// dialPeer establishes a framed connection to addr, retrying up to
// retries times with linearly growing backoff — enough patience for a
// peer process that is still binding its listener, bounded enough that a
// never-starting peer fails the run instead of hanging it.
func dialPeer(addr string, retries int, backoff, timeout time.Duration) (*Conn, error) {
	if retries <= 0 {
		retries = defaultDialRetries
	}
	if backoff <= 0 {
		backoff = defaultDialBackoff
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * backoff)
		}
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return newConn(nc, timeout), nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("netrun: dialing %s: gave up after %d attempts: %w", addr, retries+1, lastErr)
}

// acceptPeer waits for one inbound connection, bounded by deadline
// support when the listener offers it (TCP listeners do).
func acceptPeer(ln net.Listener, patience, timeout time.Duration) (*Conn, error) {
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := ln.(deadliner); ok {
		if err := d.SetDeadline(time.Now().Add(patience)); err != nil {
			return nil, fmt.Errorf("netrun: arming accept deadline: %w", err)
		}
	}
	nc, err := ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("netrun: accepting peer: %w", err)
	}
	return newConn(nc, timeout), nil
}

// pace sleeps the configured inter-round interval; the round loop calls
// it so every other file stays free of wall-clock time.
func pace(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}
