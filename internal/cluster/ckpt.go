package cluster

import (
	"sort"

	"repro/internal/isa"
)

// Worker-side half of driver-coordinated replay-log checkpoints (the GC
// protocol that keeps recovery's write/fan-out logs bounded on long runs).
//
// The driver proposes a checkpoint when the adapt coordinator retires
// sweeps — fan-outs whose cost reports are complete, so their iterations
// are believed finished. The protocol then proves the store covers them:
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

// startCkpt begins checkpoint m.Seq: record write-log cuts, adopt the
// proposed sweep set, announce the mark to every peer, and absorb any
// peer marks that overtook this KCkpt.
func (w *worker) startCkpt(m *Msg) {
	if !w.recover || m.Seq == 0 {
		return
	}
	w.ckptID = m.Seq
	w.ckptDumped = false
	w.ckptCuts = make(map[int]int, len(w.writeLog))
	for pe, log := range w.writeLog {
		w.ckptCuts[pe] = len(log)
	}
	w.ckptSweeps = append([]int64(nil), m.Lists.Iters...)
	// Prune mark entries of aborted/finished checkpoints (IDs only grow).
	for seq := range w.ckptMark {
		if seq < m.Seq {
			delete(w.ckptMark, seq)
		}
	}
	for pe := 0; pe < w.n; pe++ {
		if pe != w.pe {
			w.send(pe, &Msg{Kind: KCkptMark, Seq: m.Seq})
		}
	}
	w.maybeCkptDump()
}

// handleCkptMark records one peer's cut marker. Marks for a checkpoint
// this worker has not started yet are held in the seq-keyed table and
// counted once the KCkpt arrives.
func (w *worker) handleCkptMark(m *Msg) {
	f := int(m.From)
	if !w.recover || m.Seq == 0 || f < 0 || f >= w.n || f == w.pe {
		return
	}
	if w.ckptMark == nil {
		w.ckptMark = make(map[int64]map[int]bool)
	}
	if w.ckptMark[m.Seq] == nil {
		w.ckptMark[m.Seq] = make(map[int]bool)
	}
	w.ckptMark[m.Seq][f] = true
	w.maybeCkptDump()
}

// maybeCkptDump fires the dump+ack once this worker holds the open
// checkpoint's marks from every peer (immediately for a 1-PE cluster).
func (w *worker) maybeCkptDump() {
	if w.ckptID != 0 && !w.ckptDumped && len(w.ckptMark[w.ckptID]) == w.n-1 {
		w.ckptDumped = true
		w.ckptDump()
	}
}

// ckptDump ships every owned segment to the driver stamped with the
// checkpoint ID (so the driver's result gather cannot mistake it for a
// final dump), then acks with this worker's veto: proposed sweeps that
// still have an instance live here — queued, running, or granted away and
// not yet reported done — whose writes a pre-veto GC could lose.
func (w *worker) ckptDump() {
	seq := w.ckptID
	for _, arr := range w.arrays {
		a := w.shard.Array(arr)
		if a == nil {
			continue
		}
		lo, hi := a.Header().SegmentElems(w.pe)
		for base := lo; base < hi; base += restoreChunk {
			end := min(base+restoreChunk, hi)
			vals := make([]isa.Value, end-base)
			set := make([]bool, end-base)
			any := false
			for off := base; off < end; off++ {
				if v, present := a.Peek(off); present {
					vals[off-base] = v
					set[off-base] = true
					any = true
				}
			}
			if !any {
				continue
			}
			w.send(w.driverID(), &Msg{Kind: KDump, Seq: seq,
				Arr: arr, Off: int32(base), Vals: vals, Set: set})
		}
	}
	proposed := make(map[int64]bool, len(w.ckptSweeps))
	for _, s := range w.ckptSweeps {
		proposed[s] = true
	}
	veto := make(map[int64]bool)
	for _, sp := range w.insts {
		if proposed[sp.costSweep] {
			veto[sp.costSweep] = true
		}
	}
	for _, e := range w.grantLog {
		if proposed[e.item.Sweep] {
			veto[e.item.Sweep] = true
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
	if m.Seq == 0 || m.Seq != w.ckptID {
		return
	}
	for pe, cut := range w.ckptCuts {
		log := w.writeLog[pe]
		if cut > len(log) {
			cut = len(log)
		}
		if cut == 0 {
			continue
		}
		rest := append([]writeRec(nil), log[cut:]...)
		if len(rest) == 0 {
			delete(w.writeLog, pe)
		} else {
			w.writeLog[pe] = rest
		}
	}
	if len(m.Lists.Iters) > 0 {
		done := make(map[int64]bool, len(m.Lists.Iters))
		for _, s := range m.Lists.Iters {
			if s != 0 {
				done[s] = true
			}
		}
		kept := w.fanoutLog[:0]
		for _, f := range w.fanoutLog {
			if !done[f.sweep] {
				kept = append(kept, f)
			}
		}
		for i := len(kept); i < len(w.fanoutLog); i++ {
			w.fanoutLog[i] = fanoutRec{}
		}
		w.fanoutLog = kept
	}
	delete(w.ckptMark, m.Seq)
	w.ckptID = 0
	w.ckptDumped = false
	w.ckptCuts = nil
	w.ckptSweeps = nil
}
