package cluster

import "sort"

// Replay-log checkpoints, the part of the recovery layer that keeps its
// write and fan-out logs bounded on long runs. They run only when Recover
// and Adapt are both on: the driver proposes a checkpoint when the adapt
// coordinator retires sweeps — fan-outs whose cost reports are complete,
// so their iterations are believed finished. The protocol then proves the
// store covers them:
//
//  1. KCkpt(seq, sweeps): every worker records a cut in each per-peer
//     write log and sends KCkptMark(seq) to every peer. Per-pair FIFO puts
//     the mark *behind* every pre-cut write on that stream.
//  2. On holding marks from all n-1 peers, a worker's owned segments
//     contain every pre-cut remote write plus all its local ones; it dumps
//     them to the driver (KDump stamped with the checkpoint seq) and acks
//     with the proposed sweeps that still have live instances here — its
//     veto.
//  3. The driver assembles the dumps into its snapshot, subtracts the
//     vetoes, and broadcasts KCkptOK(seq, effective): each worker drops
//     its pre-cut write-log prefixes and the effective sweeps' fan-out
//     records. The driver likewise drops those sweeps from its own log;
//     vetoed sweeps return to the pending pool for the next checkpoint.
//
// After a later failure, survivors replay only post-cut suffixes and
// unretired fan-outs; the replacement's owned segments are backfilled from
// the driver snapshot (KRestore). A recovery aborts any open checkpoint on
// both sides — checkpoint IDs are never reused, so stale marks and acks
// are inert.

// ckptState is a worker's checkpoint in flight, held in its recovery
// layer: its ID (0 when none is open), whether this worker has dumped, the
// per-destination write-log cut recorded when it started, and the sweeps
// it proposes to GC. marks records peer marks keyed by checkpoint ID — a
// peer's mark can overtake this worker's own KCkpt (different FIFO
// streams), so early marks are held until the KCkpt names them. Stale
// entries are pruned when the next checkpoint starts.
type ckptState struct {
	id     int64
	dumped bool
	cuts   map[int]int
	sweeps []int64
	marks  map[int64]map[int]bool
}

// startCkpt begins checkpoint m.Seq: record write-log cuts, adopt the
// proposed sweep set, announce the mark to every peer, and absorb any
// peer marks that overtook this KCkpt.
func (w *worker) startCkpt(m *Msg) {
	if m.Seq == 0 {
		return
	}
	r := w.recover
	// Prune mark entries of aborted/finished checkpoints (IDs only grow).
	for seq := range r.ckpt.marks {
		if seq < m.Seq {
			delete(r.ckpt.marks, seq)
		}
	}
	r.ckpt = ckptState{id: m.Seq, cuts: make(map[int]int, len(r.writeLog)),
		sweeps: append([]int64(nil), m.Lists.Iters...), marks: r.ckpt.marks}
	for pe, log := range r.writeLog {
		r.ckpt.cuts[pe] = len(log)
	}
	w.toPeers(KCkptMark, m.Seq)
	w.maybeCkptDump()
}

// handleCkptMark records one peer's cut marker. Marks for a checkpoint
// this worker has not started yet are held in the seq-keyed table and
// counted once the KCkpt arrives.
func (w *worker) handleCkptMark(m *Msg) {
	c, f := &w.recover.ckpt, int(m.From)
	if m.Seq == 0 || f < 0 || f >= w.n || f == w.pe {
		return
	}
	if c.marks == nil {
		c.marks = make(map[int64]map[int]bool)
	}
	if c.marks[m.Seq] == nil {
		c.marks[m.Seq] = make(map[int]bool)
	}
	c.marks[m.Seq][f] = true
	w.maybeCkptDump()
}

// maybeCkptDump dumps and acks once this worker holds the open
// checkpoint's marks from every peer (immediately for a 1-PE cluster): it
// ships every owned segment to the driver stamped with the checkpoint ID
// (so the driver's result gather cannot mistake it for a final dump), then
// acks with this worker's veto: proposed sweeps that still have an
// instance live here — queued or running — whose writes a pre-veto GC
// could lose.
func (w *worker) maybeCkptDump() {
	r := w.recover
	seq := r.ckpt.id
	if seq == 0 || r.ckpt.dumped || len(r.ckpt.marks[seq]) != w.n-1 {
		return
	}
	r.ckpt.dumped = true
	for _, arr := range r.arrays {
		a := w.shard.Array(arr)
		if a == nil {
			continue
		}
		lo, hi := a.Header().SegmentElems(w.pe)
		for base := lo; base < hi; base += restoreChunk {
			if d, some := dumpMsg(a, base, min(base+restoreChunk, hi)); some {
				d.Seq = seq
				w.send(w.driverID(), d)
			}
		}
	}
	proposed := make(map[int64]bool, len(r.ckpt.sweeps))
	for _, s := range r.ckpt.sweeps {
		proposed[s] = true
	}
	veto := make(map[int64]bool)
	for _, sp := range w.insts {
		if proposed[sp.costSweep] {
			veto[sp.costSweep] = true
		}
	}
	vetoed := make([]int64, 0, len(veto))
	for s := range veto {
		vetoed = append(vetoed, s)
	}
	sort.Slice(vetoed, func(i, j int) bool { return vetoed[i] < vetoed[j] })
	w.send(w.driverID(), &Msg{Kind: KCkptAck, Seq: seq, Lists: &MsgLists{Iters: vetoed}})
}

// finishCkpt applies the driver's commit: the snapshot covers every
// pre-cut write and every effective sweep, so the write-log prefixes and
// those sweeps' fan-out records are garbage.
func (w *worker) finishCkpt(m *Msg) {
	r := w.recover
	if m.Seq == 0 || m.Seq != r.ckpt.id {
		return
	}
	for pe, cut := range r.ckpt.cuts {
		log := r.writeLog[pe]
		if cut = min(cut, len(log)); cut == len(log) {
			delete(r.writeLog, pe)
		} else if cut > 0 {
			r.writeLog[pe] = append([]writeRec(nil), log[cut:]...)
		}
	}
	r.fanoutLog = dropSweeps(r.fanoutLog, m.Lists.Iters)
	delete(r.ckpt.marks, m.Seq)
	r.ckpt = ckptState{marks: r.ckpt.marks}
}

// ckptCoord is the driver's half of the checkpoint protocol: it proposes
// the sweeps the adapt coordinator retired, counts the workers' acks and
// vetoes, and holds checkpoint dumps that overtook their array's KAlloc
// broadcast (different FIFO streams).
type ckptCoord struct {
	seq     int64   // monotone checkpoint IDs (Msg.Seq, nonzero): the latest one proposed
	open    bool    // one checkpoint in flight at a time
	acks    int     // workers that finished dumping
	sweeps  []int64 // sweeps the open checkpoint proposes to GC
	vetoed  []int64 // sweeps some worker reported still running
	pending []int64 // retired sweeps awaiting the next checkpoint
	done    int64   // completed checkpoints

	dumps map[int64][]*Msg // checkpoint dumps waiting for their array's header
}

// propose adds newly retired sweeps to the pending pool and opens a
// checkpoint over the pool, unless one is already in flight or the pool is
// empty. It returns the KCkpt to broadcast, or nil.
func (c *ckptCoord) propose(retired []int64) func() *Msg {
	c.pending = append(c.pending, retired...)
	if c.open || len(c.pending) == 0 {
		return nil
	}
	c.seq++
	c.open, c.acks = true, 0
	c.sweeps, c.pending, c.vetoed = c.pending, nil, nil
	return ckptMsg(KCkpt, c.seq, c.sweeps)
}

// ack folds one worker's KCkptAck. When the last of n workers has dumped,
// the driver's snapshot covers all pre-cut logged writes: the checkpoint
// closes, and ack returns the KCkptOK to broadcast and the sweeps the logs
// may drop — the proposed ones minus those some worker reported still
// live, which retry at the next checkpoint.
func (c *ckptCoord) ack(m *Msg, n int) (ok func() *Msg, effective []int64) {
	if !c.open || m.Seq != c.seq {
		return nil, nil // stale ack from an aborted checkpoint
	}
	c.acks++
	c.vetoed = append(c.vetoed, m.Lists.Iters...)
	if c.acks < n {
		return nil, nil
	}
	vetoed := make(map[int64]bool, len(c.vetoed))
	for _, s := range c.vetoed {
		vetoed[s] = true
	}
	for _, s := range c.sweeps {
		if vetoed[s] {
			c.pending = append(c.pending, s)
		} else {
			effective = append(effective, s)
		}
	}
	c.open, c.sweeps, c.vetoed = false, nil, nil
	c.done++
	return ckptMsg(KCkptOK, c.seq, effective), effective
}

// ckptMsg makes fresh kind-k frames of checkpoint seq naming sweeps.
func ckptMsg(k MsgKind, seq int64, sweeps []int64) func() *Msg {
	return func() *Msg { return &Msg{Kind: k, Seq: seq, Lists: &MsgLists{Iters: append([]int64(nil), sweeps...)}} }
}

// abort drops the open checkpoint at a recovery: its marks and acks mix
// incarnations. The sweeps return to the pending pool — nothing was GC'd
// (logs only drop on KCkptOK), so nothing is lost.
func (c *ckptCoord) abort() {
	if c.open {
		c.open = false
		c.pending = append(c.pending, c.sweeps...)
		c.sweeps, c.vetoed = nil, nil
	}
}

// hold parks a checkpoint dump for an array the driver has no header for
// yet and reports true; any other dump is not its to hold.
func (c *ckptCoord) hold(m *Msg) bool {
	if m.Seq == 0 {
		return false
	}
	if c.dumps == nil {
		c.dumps = make(map[int64][]*Msg)
	}
	c.dumps[m.Arr] = append(c.dumps[m.Arr], m)
	return true
}

// release hands back, and forgets, the dumps held for array arr.
func (c *ckptCoord) release(arr int64) []*Msg {
	d := c.dumps[arr]
	delete(c.dumps, arr)
	return d
}
