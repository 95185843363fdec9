package daemon

// Recorded is the replay daemon of the networked runtime's differential
// oracle (internal/netrun, DESIGN.md §13): it holds a schedule recorded
// from a live execution — the vertices that activated at each round — and
// replays it verbatim, one entry per Select call. It makes no decisions of
// its own; the engine's own validation (sim.ErrDaemonSelection) is the
// oracle's teeth: a recorded vertex that is not enabled in the replayed
// configuration, or an exhausted schedule, fails the replay loudly instead
// of silently diverging.

import (
	"fmt"
	"math/rand"

	"specstab/internal/sim"
)

// Recorded replays a fixed activation schedule.
type Recorded[S comparable] struct {
	schedule [][]int
	next     int
}

// NewRecorded returns a daemon replaying schedule: Select call i returns
// schedule[i]. The schedule is retained, not copied — recorded journals
// can be large, and the daemon only reads.
func NewRecorded[S comparable](schedule [][]int) *Recorded[S] {
	return &Recorded[S]{schedule: schedule}
}

// Name implements sim.Daemon.
func (d *Recorded[S]) Name() string {
	return fmt.Sprintf("recorded[%d rounds]", len(d.schedule))
}

// Select implements sim.Daemon: the next recorded selection, verbatim. An
// exhausted schedule appends nothing, which the engine rejects as an empty
// selection — stepping past the recording is a caller bug, not a replay.
func (d *Recorded[S]) Select(_ sim.Config[S], _ []int, _ *rand.Rand, dst []int) []int {
	if d.next >= len(d.schedule) {
		return dst
	}
	sel := d.schedule[d.next]
	d.next++
	return append(dst, sel...)
}

var _ sim.Daemon[int] = (*Recorded[int])(nil)
