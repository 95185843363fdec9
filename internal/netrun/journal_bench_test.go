package netrun

import (
	"bytes"
	"testing"
)

// BenchmarkReadJournal times loading a journal of 4,096 rounds of a
// 12-vertex ring, each selecting four vertices, as lockd -replay and
// LoadJournal do: ns/round is the cost of one round record.
func BenchmarkReadJournal(b *testing.B) {
	const rounds = 4096
	var sink bytes.Buffer
	jw, err := newJournalWriter(testHeader(), &sink)
	if err != nil {
		b.Fatal(err)
	}
	for r := int64(1); r <= rounds; r++ {
		v := int(r % 9)
		if err := jw.round(r, []int{v, v + 1, v + 2, v + 3}, uint64(r)*0x9e3779b97f4a7c15); err != nil {
			b.Fatal(err)
		}
	}
	if err := jw.flush(); err != nil {
		b.Fatal(err)
	}
	raw := sink.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := ReadJournal(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if len(j.Entries) != rounds {
			b.Fatalf("loaded %d rounds, want %d", len(j.Entries), rounds)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rounds, "ns/round")
}
