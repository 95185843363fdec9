package netrun

// Journal buffering tests: the hand-rolled JSONL writer must stay
// byte-compatible with the json.Encoder records PR 9 wrote per round,
// the flush policy must hold entries back until a boundary or an
// explicit flush, and ReadJournal must tolerate exactly one torn line —
// the final one.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"specstab/internal/scenario"
)

func testHeader() Header {
	return Header{
		Kind: "header",
		Scenario: &scenario.Scenario{
			Seed:     3,
			Protocol: scenario.ProtocolSpec{Name: "dijkstra", K: 13},
			Topology: scenario.TopologySpec{Name: "ring", N: 12},
			Daemon:   scenario.DaemonSpec{Name: "sync"},
			Init:     scenario.InitSpec{Mode: "random"},
		},
		Nodes:    3,
		Node:     0,
		Lease:    64,
		Capacity: 1,
		InitFP:   fpString(0xabcdef0123456789),
	}
}

// TestJournalEntryJSON pins appendEntryJSON to json.Encoder's bytes —
// the comparison the comment in journal.go promises.
func TestJournalEntryJSON(t *testing.T) {
	cases := []Entry{
		{Kind: "round", Round: 1, Sel: []int{0}, FP: fpString(0)},
		{Kind: "round", Round: 42, Sel: []int{3, 7, 1000000}, FP: fpString(0x00000000deadbeef)},
		{Kind: "round", Round: 9_000_000_000, Sel: []int{}, FP: fpString(^uint64(0))},
	}
	for _, e := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(e); err != nil {
			t.Fatal(err)
		}
		fp, err := parseFP(e.FP)
		if err != nil {
			t.Fatal(err)
		}
		got := appendEntryJSON(nil, e.Round, e.Sel, fp)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendEntryJSON(%+v):\n got %q\nwant %q", e, got, want.Bytes())
		}
	}
}

// TestJournalFlushPolicy drives the writer past both flush triggers and
// checks what reaches the sink when.
func TestJournalFlushPolicy(t *testing.T) {
	var sink bytes.Buffer
	jw, err := newJournalWriter(testHeader(), &sink)
	if err != nil {
		t.Fatal(err)
	}
	var fed []Entry
	round := func(r int64, sel []int, fp uint64) {
		t.Helper()
		fed = append(fed, Entry{Kind: "round", Round: r, Sel: append([]int(nil), sel...), FP: fpString(fp)})
		if err := jw.round(r, sel, fp); err != nil {
			t.Fatal(err)
		}
	}
	headerLen := sink.Len()
	if headerLen == 0 {
		t.Fatal("header not written immediately")
	}
	round(1, []int{0, 5}, 0x1111)
	if sink.Len() != headerLen {
		t.Fatalf("round 1 reached the sink before any flush boundary (%d > %d bytes)", sink.Len(), headerLen)
	}
	if jw.buffered.Load() == 0 {
		t.Fatal("buffered gauge is 0 with a round pending")
	}
	// The round-count trigger.
	for r := int64(2); r <= journalFlushRounds; r++ {
		round(r, []int{int(r % 12)}, uint64(r))
	}
	if sink.Len() == headerLen {
		t.Fatalf("%d rounds did not trigger a flush", journalFlushRounds)
	}
	if jw.buffered.Load() != 0 {
		t.Fatal("buffered gauge nonzero right after a flush")
	}
	// The explicit flush (the drain/bye/fault path).
	round(journalFlushRounds+1, []int{1}, 0x2222)
	if err := jw.flush(); err != nil {
		t.Fatal(err)
	}
	j, err := ReadJournal(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !equalJournal(j, &Journal{Entries: fed}) {
		t.Fatal("the sink's journal differs from the rounds fed to the writer")
	}
}

// TestStreamingJournalHoldsNoRounds: a writer with a sink streams every
// round and keeps none in memory, however long the node runs, so its
// arena stays empty and it materializes no journal.
func TestStreamingJournalHoldsNoRounds(t *testing.T) {
	var sink bytes.Buffer
	jw, err := newJournalWriter(testHeader(), &sink)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3*journalFlushRounds + 7
	for r := int64(1); r <= rounds; r++ {
		if err := jw.round(r, []int{int(r % 12), 11}, uint64(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.flush(); err != nil {
		t.Fatal(err)
	}
	if len(jw.recs) != 0 || len(jw.selArena) != 0 {
		t.Fatalf("streaming writer holds %d rounds and %d arena words", len(jw.recs), len(jw.selArena))
	}
	if jw.journal() != nil {
		t.Fatal("streaming writer materialized an in-memory journal")
	}
	j, err := ReadJournal(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Entries) != rounds {
		t.Fatalf("sink holds %d rounds, want %d", len(j.Entries), rounds)
	}
}

func equalJournal(a, b *Journal) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		ae, be := a.Entries[i], b.Entries[i]
		if ae.Round != be.Round || ae.FP != be.FP || len(ae.Sel) != len(be.Sel) {
			return false
		}
		for k := range ae.Sel {
			if ae.Sel[k] != be.Sel[k] {
				return false
			}
		}
	}
	return true
}

// TestReadJournalTornTail: a SIGKILL mid-flush leaves a partial final
// line; every complete round before it must still load. The same
// damage anywhere but the tail stays fatal.
func TestReadJournalTornTail(t *testing.T) {
	var sink bytes.Buffer
	jw, err := newJournalWriter(testHeader(), &sink)
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(1); r <= 3; r++ {
		if err := jw.round(r, []int{int(r)}, uint64(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.flush(); err != nil {
		t.Fatal(err)
	}
	whole := sink.String()
	lines := strings.SplitAfter(strings.TrimSuffix(whole, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("journal has %d lines, want 4", len(lines))
	}

	torn := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	j, err := ReadJournal(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(j.Entries) != 2 {
		t.Fatalf("torn journal loaded %d entries, want 2", len(j.Entries))
	}

	midTorn := lines[0] + lines[1][:len(lines[1])/2] + "\n" + lines[2] + lines[3]
	if _, err := ReadJournal(strings.NewReader(midTorn)); err == nil {
		t.Fatal("mid-journal damage must stay a hard error")
	}

	sparse := lines[0] + lines[1] + lines[3]
	if _, err := ReadJournal(strings.NewReader(sparse)); err == nil {
		t.Fatal("sparse rounds must stay a hard error")
	}
}

// TestDecodeFrameIntoReuse checks the decode scratch contract: a second
// decode into the same frame reuses Sel backing when it fits.
func TestDecodeFrameIntoReuse(t *testing.T) {
	big := &Frame{Kind: KindRound, Round: RoundFrame{
		Round: 1, Node: 2, PrevFP: 9,
		Sel: []uint32{1, 4, 6},
	}}
	small := &Frame{Kind: KindRound, Round: RoundFrame{
		Round: 2, Node: 2, PrevFP: 10,
		Sel: []uint32{5},
	}}
	pb, err := AppendFrame(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := AppendFrame(nil, small)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := DecodeFrameInto(&f, pb); err != nil {
		t.Fatal(err)
	}
	firstSel := &f.Round.Sel[0]
	if err := DecodeFrameInto(&f, ps); err != nil {
		t.Fatal(err)
	}
	if len(f.Round.Sel) != 1 || f.Round.Sel[0] != 5 || f.Round.PrevFP != 10 {
		t.Fatalf("reused decode corrupted: %+v", f.Round)
	}
	if &f.Round.Sel[0] != firstSel {
		t.Error("smaller decode did not reuse the existing Sel backing")
	}
	// And the result must match a fresh DecodeFrame bit for bit.
	fresh, err := DecodeFrame(ps)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Round.Round != f.Round.Round || fresh.Round.Sel[0] != f.Round.Sel[0] {
		t.Fatal("DecodeFrameInto and DecodeFrame disagree")
	}
}
