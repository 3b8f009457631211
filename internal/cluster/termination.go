package cluster

import (
	"fmt"
	"strings"
)

// Distributed termination detection, four-counter style (Mattern 1987):
// every worker reports its cumulative worker-to-worker message counts (sent,
// received) and its live SP count, and the computation has terminated when
// two observations of every PE — the second begun after the first completed
// — both show zero live SPs everywhere and the same, balanced message sums:
// then no worker was active between the waves and no data message was in
// flight, so nothing can ever change again.
//
// The first wave is each PE's latest report: its last probe ack, or the
// unsolicited one (a KAck with Round 0) a worker pushes whenever it is about
// to block with no live SP in a state it has not reported yet. The second
// wave is one probe round. The driver starts that round the moment the
// latest reports look terminated (armed) instead of finishing its
// inter-round wait, so detection costs one push plus one round trip after
// the last PE goes idle and never depends on a timer firing. A report can
// be stale — a PE that went busy again says nothing until it is next probed
// or idle — which is why reports only ever arm a round and never decide one.
//
// Per-sender FIFO makes the check double as a result barrier: a worker's
// round-r ack follows every result token and alloc broadcast it previously
// sent the driver, so by the time round r is evaluated the driver has
// already processed them.

// detector accumulates reports and probe rounds and decides termination.
type detector struct {
	// acks is each PE's latest report, ack or push (per-sender FIFO: arrival
	// order is report order). Round is the last round the PE acked. A zero
	// entry is unflushed, so a PE that has not reported yet never looks
	// quiet.
	acks []AckStats

	// round is the probe round currently being collected; seen marks the
	// PEs that have answered it, and got counts how many have. Tracking
	// both is what makes a duplicated or replayed ack harmless: an ack for
	// any other round is ignored, and a PE counts at most once per round —
	// a duplicate can therefore never complete a round in place of a PE
	// that never answered.
	round int32
	seen  []bool
	got   int

	// epoch is the counting epoch reports must belong to. A recovery bumps
	// it (and every worker zeroes its counters on adoption), so a report
	// whose sums predate the recovery can never mix into the new epoch's
	// totals.
	epoch int32

	// prev holds the first wave's sums — the latest reports as they stood
	// when the current round began; prevOK marks them as a candidate (every
	// PE idle and flushed, sent == recv).
	prevSent, prevRecv int64
	prevOK             bool
}

func newDetector(n int) *detector {
	return &detector{acks: make([]AckStats, n), seen: make([]bool, n)}
}

// begin starts collecting a new probe round. The latest reports are frozen
// as the first wave here, before any probe goes out: the round is a second
// wave only for observations that were complete when it began.
func (d *detector) begin(round int32) {
	d.round = round
	d.got = 0
	for i := range d.seen {
		d.seen[i] = false
	}
	d.prevSent, d.prevRecv, d.prevOK = d.quiescent()
}

// record stores one report; reports from another counting epoch or a PE out
// of range are ignored. A push (Round 0) only replaces the PE's latest
// report. An ack must answer the current round and counts once per PE;
// record returns true when it completes the round (every PE answered once).
func (d *detector) record(pe int, m *Msg) bool {
	if pe < 0 || pe >= len(d.acks) || m.Epoch != d.epoch {
		return false
	}
	round := d.acks[pe].Round
	if m.Round != 0 {
		if m.Round != d.round || d.seen[pe] {
			return false
		}
		d.seen[pe] = true
		d.got++
		round = m.Round
	}
	d.acks[pe] = *m.Ack
	d.acks[pe].Round = round
	return m.Round != 0 && d.got == len(d.acks)
}

// quiescent sums the latest reports; ok means no PE has a live SP, every
// PE's counting epoch is flushed and no data message is in flight. The
// flush matters beyond the classic conditions: a frame sent before an epoch
// reset is invisible to the new epoch's sums on both ends, so only the
// flush markers (which trail all older-epoch traffic on each FIFO stream)
// prove nothing uncounted is still in flight.
func (d *detector) quiescent() (sent, recv int64, ok bool) {
	ok = true
	for i := range d.acks {
		a := &d.acks[i]
		sent += a.MsgsSent
		recv += a.MsgsRecv
		ok = ok && a.Live == 0 && a.Flushed
	}
	return sent, recv, ok && sent == recv
}

// armed reports whether the latest reports look terminated; the driver
// then probes at once instead of waiting out its interval.
func (d *detector) armed() bool {
	_, _, ok := d.quiescent()
	return ok
}

// roundDone evaluates a completed round, the second wave (every PE's latest
// report now postdates the round's start). It returns true when termination
// is detected: the reports are quiescent and sum to what the first wave did.
func (d *detector) roundDone() bool {
	sent, recv, ok := d.quiescent()
	return ok && d.prevOK && sent == d.prevSent && recv == d.prevRecv
}

// reset moves the detector into a new counting epoch after a recovery:
// every held report belongs to the old epoch and stops vouching for
// anything (unflushed: it can neither arm nor confirm a round), and
// subsequent reports must carry the new epoch to count.
func (d *detector) reset(epoch int32) {
	d.epoch = epoch
	for i := range d.acks {
		d.acks[i].Flushed = false
	}
}

// unacked lists the PEs that have not answered the round being collected —
// the recovery candidates when the round deadline fires.
func (d *detector) unacked() []int {
	var out []int
	for pe, s := range d.seen {
		if !s {
			out = append(out, pe)
		}
	}
	return out
}

// liveSPs sums the live SP counts of the latest acks (deadlock diagnostics).
func (d *detector) liveSPs() int {
	n := 0
	for _, a := range d.acks {
		n += int(a.Live)
	}
	return n
}

// sum adds up the counters of the latest acks.
func (d *detector) sum() Counters {
	var s Counters
	for i := range d.acks {
		for _, f := range counterFields {
			*f.get(&s) += *f.get(&d.acks[i].Counters)
		}
	}
	return s
}

// stallReport describes the round being collected for the driver's
// round-deadline diagnostic: which PEs never answered, and every PE's
// last recorded ack state.
func (d *detector) stallReport() string {
	var b strings.Builder
	for pe, a := range d.acks {
		if pe > 0 {
			b.WriteString("; ")
		}
		if d.seen[pe] {
			fmt.Fprintf(&b, "pe %d: acked round %d", pe, a.Round)
		} else {
			fmt.Fprintf(&b, "pe %d: NO ACK for round %d (last ack round %d)", pe, d.round, a.Round)
		}
		fmt.Fprintf(&b, " live=%d sent=%d recv=%d", a.Live, a.MsgsSent, a.MsgsRecv)
	}
	return b.String()
}

// perPEInstrs reports each worker's executed-instruction count from the
// latest acks (Result.PEInstrs: makespan and utilization).
func (d *detector) perPEInstrs() []int64 {
	out := make([]int64, len(d.acks))
	for i, a := range d.acks {
		out[i] = a.Instrs
	}
	return out
}

// perPEStats reports each worker's full counter breakdown from the latest
// acks — the per-PE half of Result.Stats, so balance claims are checkable
// per worker instead of only as cluster-wide sums.
func (d *detector) perPEStats() []PEStat {
	out := make([]PEStat, len(d.acks))
	for i, a := range d.acks {
		out[i] = PEStat{PE: i, Counters: a.Counters}
	}
	return out
}
