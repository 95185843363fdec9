package netrun

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

// goldenFrames pins the wire encoding of each frame kind byte-for-byte:
// a codec change that alters any of these is a protocol version bump, not
// a refactor.
var goldenFrames = []struct {
	name string
	f    Frame
	hex  string
}{
	{
		name: "hello",
		f:    Frame{Kind: KindHello, Hello: Hello{Node: 1, Nodes: 3, SpecHash: 0x0123456789abcdef}},
		hex:  "53504e5200020100000001000000030123456789abcdef",
	},
	{
		name: "round",
		f: Frame{Kind: KindRound, Round: RoundFrame{
			Round: 7, Node: 2, PrevFP: 0xdeadbeefcafef00d,
			Active: 1, Sel: []uint32{4, 9},
		}},
		hex: "53504e52000202" + "0000000000000007" + "00000002" + "deadbeefcafef00d" +
			"00000001" + "00000002" + "00000004" + "00000009",
	},
	{
		name: "round-empty",
		f: Frame{Kind: KindRound, Round: RoundFrame{
			Round: 1, Node: 0, PrevFP: 0x1122334455667788,
			Active: 0, Sel: []uint32{},
		}},
		hex: "53504e52000202" + "0000000000000001" + "00000000" + "1122334455667788" +
			"00000000" + "00000000",
	},
	{
		name: "bye",
		f:    Frame{Kind: KindBye, Bye: Bye{Node: 0, Round: 42}},
		hex:  "53504e52000203" + "00000000" + "000000000000002a",
	},
}

func TestFrameGoldenVectors(t *testing.T) {
	t.Parallel()
	for _, g := range goldenFrames {
		enc, err := AppendFrame(nil, &g.f)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if got := hex.EncodeToString(enc); got != g.hex {
			t.Errorf("%s: encoding drifted\n got %s\nwant %s", g.name, got, g.hex)
		}
		raw, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", g.name, err)
		}
		dec, err := DecodeFrame(raw)
		if err != nil {
			t.Fatalf("%s: decode golden: %v", g.name, err)
		}
		if dec.Kind != g.f.Kind || dec.Hello != g.f.Hello || dec.Bye != g.f.Bye {
			t.Errorf("%s: decoded %+v, want %+v", g.name, dec, g.f)
		}
		if g.f.Kind == KindRound {
			got, want := dec.Round, g.f.Round
			if got.Round != want.Round || got.Node != want.Node ||
				got.PrevFP != want.PrevFP || got.Active != want.Active ||
				!reflect.DeepEqual(got.Sel, want.Sel) {
				t.Errorf("%s: decoded round %+v, want %+v", g.name, got, want)
			}
		}
	}
}

// TestFrameRoundTrip drives encode→decode→re-encode over representative
// frames: the re-encoding must reproduce the first byte stream exactly
// (the codec is canonical — one frame, one encoding).
func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()
	frames := []Frame{
		{Kind: KindHello, Hello: Hello{Node: 0, Nodes: 2, SpecHash: 0}},
		{Kind: KindRound, Round: RoundFrame{Round: 1, Node: 0, Sel: []uint32{}}},
		{Kind: KindRound, Round: RoundFrame{
			Round: 1 << 40, Node: 11, PrevFP: ^uint64(0), Active: 4,
			Sel: []uint32{0, 1, 2, 1000},
		}},
		{Kind: KindBye, Bye: Bye{Node: 7, Round: 9999}},
	}
	for i, f := range frames {
		enc, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		dec, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		re, err := AppendFrame(nil, dec)
		if err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
		if !reflect.DeepEqual(enc, re) {
			t.Errorf("frame %d: round trip not canonical\n first %x\nsecond %x", i, enc, re)
		}
	}
}

// TestDecodeFrameRejects pins the decoder's strictness: every malformed
// shape fails with a diagnostic, never a panic and never a lenient parse.
func TestDecodeFrameRejects(t *testing.T) {
	t.Parallel()
	round, err := AppendFrame(nil, &goldenFrames[1].f)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(off int, b byte) []byte {
		p := append([]byte(nil), round...)
		p[off] = b
		return p
	}
	cases := []struct {
		name string
		p    []byte
		want string
	}{
		{"empty", nil, "shorter than"},
		{"short-header", round[:5], "shorter than"},
		{"bad-magic", flip(0, 0xff), "bad frame magic"},
		{"bad-version", flip(5, 9), "version"},
		{"unknown-kind", flip(6, 9), "unknown frame kind"},
		{"version-1", flip(5, 1), "version 1"},
		{"hello-short", append([]byte{0x53, 0x50, 0x4e, 0x52, 0, 2, 1}, 1, 2, 3), "hello body"},
		{"round-short", round[:headerLen+roundFixed-1], "fixed part"},
		{"round-truncated", round[:len(round)-1], "round body"},
		{"round-trailing", append(append([]byte(nil), round...), 0), "round body"},
		{"bye-short", []byte{0x53, 0x50, 0x4e, 0x52, 0, 2, 3, 0}, "bye body"},
		{"round-oversize", func() []byte {
			// Claim 2^24 selections: no length prefix could carry that,
			// so the size bound must fire before allocation.
			p := append([]byte(nil), round[:headerLen+roundFixed+4]...)
			copy(p[headerLen+roundFixed-4:], []byte{0x01, 0x00, 0x00, 0x00})
			return p
		}(), "MaxFrame"},
		{"round-descending", func() []byte {
			p := append([]byte(nil), round...)
			copy(p[headerLen+roundFixed:headerLen+roundFixed+8], []byte{0, 0, 0, 9, 0, 0, 0, 4})
			return p
		}(), "ascending"},
	}
	for _, tc := range cases {
		f, err := DecodeFrame(tc.p)
		if err == nil {
			t.Errorf("%s: decoded %+v, want an error", tc.name, f)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestAppendFrameRejects pins the encoder's half of the contract: it
// refuses frames whose encoding the decoder would reject.
func TestAppendFrameRejects(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		f    Frame
		want string
	}{
		{"descending", Frame{Kind: KindRound, Round: RoundFrame{Sel: []uint32{5, 5}}}, "ascending"},
		{"unknown-kind", Frame{Kind: 77}, "kind"},
	}
	for _, tc := range cases {
		if _, err := AppendFrame(nil, &tc.f); err == nil {
			t.Errorf("%s: encoded, want an error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
