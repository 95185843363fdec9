package netrun

// The shard-frame wire codec. One frame is the complete per-round
// contribution of one node: which shard vertices it activated, its
// outstanding grant count, and the pre-round configuration fingerprint
// that lets every receiver detect replica divergence before committing.
// The frame carries no states: every node steps its own engine on the
// union of the selections and computes every move itself. The
// encoding is a fixed big-endian layout behind a length prefix — no
// reflection, no varints — because the decoder doubles as a fuzz target:
// DecodeFrame must reject every malformed input with an error, never a
// panic, and accept only encodings AppendFrame can produce (exact-length,
// no trailing bytes).
//
// Layout (all big-endian, after the transport's 4-byte length prefix):
//
//	magic   u32  0x53504E52 ("SPNR")
//	version u16  2
//	kind    u8   1=hello 2=round 3=bye
//	body         per kind:
//	  hello: node u32 | nodes u32 | specHash u64
//	  round: round u64 | node u32 | prevFP u64 | active u32 |
//	         selCount u32 | selCount × (vertex u32)
//	  bye:   node u32 | round u64
//
// Version bumps are breaking by design: a frame of a different version is
// rejected, not best-effort parsed — mixed-version rings would diverge.

import (
	"encoding/binary"
	"fmt"
)

// Wire constants. MaxFrame bounds the decoded payload so a corrupt
// length prefix cannot make a receiver allocate gigabytes: 1<<26 bytes
// holds a full-shard selection of ~16M vertices.
const (
	frameMagic   uint32 = 0x53504E52 // "SPNR"
	frameVersion uint16 = 2
	// MaxFrame is the largest payload either side of the transport will
	// encode or accept.
	MaxFrame = 1 << 26
)

// Kind discriminates frame payloads.
type Kind uint8

// Frame kinds: the handshake, the per-round shard contribution, and the
// clean-shutdown notice.
const (
	KindHello Kind = 1
	KindRound Kind = 2
	KindBye   Kind = 3
)

// String renders the kind for errors and logs.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindRound:
		return "round"
	case KindBye:
		return "bye"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Hello is the handshake frame: each side announces who it is and the
// hash of the Spec it was started from. A mismatched hash means the two
// processes would run different executions; the connection is refused.
type Hello struct {
	Node     uint32
	Nodes    uint32
	SpecHash uint64
}

// RoundFrame is one node's complete contribution to one BSP round.
type RoundFrame struct {
	// Round numbers the superstep, starting at 1; the barrier matches on
	// it exactly.
	Round uint64
	// Node is the sender's id.
	Node uint32
	// PrevFP is the sender's configuration fingerprint *before* this
	// round: all participants must agree or the replicas have diverged.
	PrevFP uint64
	// Active counts the sender's outstanding grants, giving receivers a
	// one-round-lagged view of global occupancy for capacity decisions.
	Active uint32
	// Sel lists the activated shard vertices in ascending order.
	Sel []uint32
}

// Bye announces a clean shutdown after the sender's Round: the receiver
// stops its round loop instead of treating the closed connection as a
// fault.
type Bye struct {
	Node  uint32
	Round uint64
}

// Frame is the decoded union of the three payload kinds.
type Frame struct {
	Kind  Kind
	Hello Hello
	Round RoundFrame
	Bye   Bye
}

// headerLen is magic + version + kind; roundFixed is a round body's
// fixed part: round, node, prevFP, active and the selection count.
const (
	headerLen  = 4 + 2 + 1
	roundFixed = 8 + 4 + 8 + 4 + 4
)

// AppendFrame appends f's wire encoding (without the transport length
// prefix) to dst and returns the extended slice. It validates the
// invariants DecodeFrame enforces, so an encode/decode round trip is
// identity on every frame it accepts.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, frameMagic)
	dst = binary.BigEndian.AppendUint16(dst, frameVersion)
	dst = append(dst, byte(f.Kind))
	switch f.Kind {
	case KindHello:
		dst = binary.BigEndian.AppendUint32(dst, f.Hello.Node)
		dst = binary.BigEndian.AppendUint32(dst, f.Hello.Nodes)
		dst = binary.BigEndian.AppendUint64(dst, f.Hello.SpecHash)
	case KindRound:
		r := &f.Round
		for i := 1; i < len(r.Sel); i++ {
			if r.Sel[i] <= r.Sel[i-1] {
				return nil, fmt.Errorf("netrun: selection list not strictly ascending at index %d", i)
			}
		}
		if size := headerLen + roundFixed + len(r.Sel)*4; size > MaxFrame {
			return nil, fmt.Errorf("netrun: frame %d bytes exceeds MaxFrame %d", size, MaxFrame)
		}
		dst = binary.BigEndian.AppendUint64(dst, r.Round)
		dst = binary.BigEndian.AppendUint32(dst, r.Node)
		dst = binary.BigEndian.AppendUint64(dst, r.PrevFP)
		dst = binary.BigEndian.AppendUint32(dst, r.Active)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Sel)))
		for _, v := range r.Sel {
			dst = binary.BigEndian.AppendUint32(dst, v)
		}
	case KindBye:
		dst = binary.BigEndian.AppendUint32(dst, f.Bye.Node)
		dst = binary.BigEndian.AppendUint64(dst, f.Bye.Round)
	default:
		return nil, fmt.Errorf("netrun: cannot encode frame kind %s", f.Kind)
	}
	return dst, nil
}

// DecodeFrame parses one payload (without the transport length prefix).
// It is strict: wrong magic, wrong version, unknown kind, short bodies,
// oversized counts and trailing bytes are all errors. It never panics on
// any input — FuzzFrameDecode holds it to that.
func DecodeFrame(p []byte) (*Frame, error) {
	f := new(Frame)
	if err := DecodeFrameInto(f, p); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeFrameInto parses one payload with DecodeFrame's exact semantics
// and strictness, but decodes into f, reusing the capacity of
// f.Round.Sel instead of allocating when it already fits — the receive
// pumps decode every round into per-peer scratch frames, so the
// steady-state decode path never touches the heap. Only
// the decoded kind's fields are written; fields of other kinds keep
// their previous contents. On error f is left partially written.
func DecodeFrameInto(f *Frame, p []byte) error {
	if len(p) < headerLen {
		return fmt.Errorf("netrun: frame %d bytes shorter than the %d-byte header", len(p), headerLen)
	}
	if m := binary.BigEndian.Uint32(p); m != frameMagic {
		return fmt.Errorf("netrun: bad frame magic %#08x", m)
	}
	if v := binary.BigEndian.Uint16(p[4:]); v != frameVersion {
		return fmt.Errorf("netrun: frame version %d, this build speaks %d", v, frameVersion)
	}
	f.Kind = Kind(p[6])
	body := p[headerLen:]
	switch f.Kind {
	case KindHello:
		if len(body) != 16 {
			return fmt.Errorf("netrun: hello body %d bytes, want 16", len(body))
		}
		f.Hello.Node = binary.BigEndian.Uint32(body)
		f.Hello.Nodes = binary.BigEndian.Uint32(body[4:])
		f.Hello.SpecHash = binary.BigEndian.Uint64(body[8:])
	case KindRound:
		if len(body) < roundFixed {
			return fmt.Errorf("netrun: round body %d bytes shorter than the %d-byte fixed part", len(body), roundFixed)
		}
		r := &f.Round
		r.Round = binary.BigEndian.Uint64(body)
		r.Node = binary.BigEndian.Uint32(body[8:])
		r.PrevFP = binary.BigEndian.Uint64(body[12:])
		r.Active = binary.BigEndian.Uint32(body[20:])
		count := binary.BigEndian.Uint32(body[24:])
		// Exact-length check before any allocation: count is
		// attacker-controlled, the length prefix is the truth.
		want := roundFixed + int64(count)*4
		if want > MaxFrame {
			return fmt.Errorf("netrun: round frame claims %d bytes, above MaxFrame %d", want, MaxFrame)
		}
		if int64(len(body)) != want {
			return fmt.Errorf("netrun: round body %d bytes, %d selections need %d", len(body), count, want)
		}
		// Capacity reuse: reslice scratch when it fits, allocate when it
		// does not (or on the first decode — a fresh make keeps the
		// non-nil empty-slice shape DecodeFrame has always produced for
		// count=0 frames).
		if r.Sel == nil || cap(r.Sel) < int(count) {
			r.Sel = make([]uint32, count)
		} else {
			r.Sel = r.Sel[:count]
		}
		prev := int64(-1)
		for i := range r.Sel {
			r.Sel[i] = binary.BigEndian.Uint32(body[roundFixed+4*i:])
			if int64(r.Sel[i]) <= prev {
				return fmt.Errorf("netrun: selection list not strictly ascending at index %d", i)
			}
			prev = int64(r.Sel[i])
		}
	case KindBye:
		if len(body) != 12 {
			return fmt.Errorf("netrun: bye body %d bytes, want 12", len(body))
		}
		f.Bye.Node = binary.BigEndian.Uint32(body)
		f.Bye.Round = binary.BigEndian.Uint64(body[4:])
	default:
		return fmt.Errorf("netrun: unknown frame kind %d", uint8(f.Kind))
	}
	return nil
}
