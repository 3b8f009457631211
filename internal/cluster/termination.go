package cluster

import (
	"fmt"
	"strings"
)

// Distributed termination detection, four-counter style (Mattern 1987): the
// driver repeatedly probes all workers; each worker answers with its
// cumulative worker-to-worker message counts (sent, received) and its live
// SP count. The computation has terminated when two consecutive complete
// rounds observe zero live SPs everywhere and all four message sums are
// equal — then no worker was active between the waves and no data message
// was in flight, so nothing can ever change again.
//
// Per-sender FIFO makes the check double as a result barrier: a worker's
// round-r ack follows every result token and alloc broadcast it previously
// sent the driver, so by the time round r is evaluated the driver has
// already processed them.

// detector accumulates probe rounds and decides termination.
type detector struct {
	acks []AckStats // per worker, latest ack (Round filled in from the frame)

	// round is the probe round currently being collected; seen marks the
	// PEs that have answered it, and got counts how many have. Tracking
	// both is what makes a duplicated or replayed ack harmless: an ack for
	// any other round is ignored, and a PE counts at most once per round —
	// a duplicate can therefore never complete a round in place of a PE
	// that never answered.
	round int32
	seen  []bool
	got   int

	// epoch is the counting epoch acks must belong to. A recovery bumps it
	// (and every worker zeroes its counters on adoption), so an ack whose
	// sums predate the recovery can never mix into the new epoch's totals.
	epoch int32

	// prev holds the previous complete round's sums; prevOK marks it as a
	// candidate (all live == 0, sent == recv).
	prevSent, prevRecv int64
	prevOK             bool
}

func newDetector(n int) *detector {
	return &detector{acks: make([]AckStats, n), seen: make([]bool, n)}
}

// begin starts collecting a new probe round.
func (d *detector) begin(round int32) {
	d.round = round
	d.got = 0
	for i := range d.seen {
		d.seen[i] = false
	}
}

// record stores one ack; acks from any round other than the current one
// (or any counting epoch other than the current one), and repeated acks
// from the same PE within a round, are ignored. It returns true when the
// round is complete (every PE answered once).
func (d *detector) record(pe int, m *Msg) bool {
	if pe < 0 || pe >= len(d.acks) || m.Round != d.round || m.Epoch != d.epoch || d.seen[pe] {
		return false
	}
	d.seen[pe] = true
	d.acks[pe] = *m.Ack
	d.acks[pe].Round = m.Round
	d.got++
	return d.got == len(d.acks)
}

// roundDone evaluates a completed round. It returns true when termination
// is detected. Beyond the classic conditions, every worker must report
// its counting epoch flushed: a frame sent before an epoch reset is
// invisible to the new epoch's sums on both ends, so only the flush
// markers (which trail all older-epoch traffic on each FIFO stream) prove
// nothing uncounted is still in flight.
func (d *detector) roundDone() bool {
	var sent, recv int64
	allIdle := true
	for _, a := range d.acks {
		sent += a.Sent
		recv += a.Recv
		if a.Live > 0 {
			allIdle = false
		}
		if !a.Flushed {
			allIdle = false
		}
	}
	ok := allIdle && sent == recv
	terminated := ok && d.prevOK && sent == d.prevSent && recv == d.prevRecv
	d.prevSent, d.prevRecv, d.prevOK = sent, recv, ok
	return terminated
}

// reset moves the detector into a new counting epoch after a recovery: the
// quiet-round candidate is discarded (its sums belong to the old epoch)
// and subsequent acks must carry the new epoch to count.
func (d *detector) reset(epoch int32) {
	d.epoch = epoch
	d.prevOK = false
	d.prevSent, d.prevRecv = 0, 0
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

// stats aggregates the shard statistics of the latest acks.
func (d *detector) stats() Stats {
	var s Stats
	for _, a := range d.acks {
		s.DeferredReads += a.Deferred
		s.CacheHits += a.Hits
		s.CacheMisses += a.Misses
		s.Evictions += a.Evicts
		s.Refetches += a.Refetches
		s.MsgsSent += a.Sent
		s.Steals += a.Steals
		s.Forwards += a.Forwards
		s.ReplayedSPs += a.Replayed
		s.Prefetches += a.Prefetches
		s.PrefetchHits += a.PrefetchHits
		// Summed across PEs: the cluster-wide resident-page budget at the
		// last ack (each PE reports its own current CachePages bound).
		s.CacheCapNow += a.CacheCapNow
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
		fmt.Fprintf(&b, " live=%d sent=%d recv=%d", a.Live, a.Sent, a.Recv)
	}
	return b.String()
}

// perPEInstrs reports each worker's executed-instruction count from the
// latest acks (the SKEW experiment's load-balance metric).
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
		out[i] = PEStat{
			PE: i, Instrs: a.Instrs, Sent: a.Sent, Recv: a.Recv,
			DeferredReads: a.Deferred, CacheHits: a.Hits, CacheMisses: a.Misses,
			Evictions: a.Evicts, Refetches: a.Refetches,
			Steals: a.Steals, Forwards: a.Forwards, Replayed: a.Replayed,
			Prefetches: a.Prefetches, PrefetchHits: a.PrefetchHits,
			CacheCapNow: a.CacheCapNow,
		}
	}
	return out
}
