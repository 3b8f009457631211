package cluster

import (
	"errors"
	"fmt"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
)

// The steal layer (Config.Steal). An idle worker asks a peer for
// not-yet-started SPs; a loaded victim grants up to half of its stealable
// backlog in one batch and leaves a forwarding stub per granted home ID; the
// thief runs the batch as if it had been spawned there. The core calls in
// when it goes idle (maybeSteal), on every probe (stealProbe), when a token
// finds no live SP (relay), when a stolen-in SP halts (it enters halted) and
// for the three steal kinds (stealMsg); enqueue resets the backoff. A
// worker death re-runs the whole job, so the layer keeps no state for
// recovery.

// stealState is a worker's half of work stealing, nil when Config.Steal is
// off or the job has one PE.
type stealState struct {
	// forwards maps the home ID of an SP granted away to the endpoint it was
	// granted to: a token that arrives for the home ID is relayed there, and
	// the relay counts in sent/recv so four-counter termination stays sound.
	// halted records stolen-in SPs that ran here to completion: the relay is
	// the one path that can legally deliver a token after its target's last
	// consumed slot, so late tokens for those IDs are dropped instead of
	// failing the run. Both maps are bounded by the number of migrations.
	forwards map[int64]int
	halted   map[int64]struct{}

	victim        int   // round-robin cursor over peers
	fails         int   // consecutive KStealNone answers since last work
	wait          int   // idle wake-ups to skip before the next attempt
	dormantProbes int   // probe rounds observed while dormant
	outstanding   bool  // one request in flight at a time
	steals        int64 // SPs stolen and installed here
	forwarded     int64 // tokens relayed through forwarding stubs
	lateTokens    int64 // tokens dropped for halted SPs
}

// stealReviveProbes is the number of probe rounds a dormant worker waits
// before retrying a full steal sweep.
const stealReviveProbes = 8

// stealDormantAfter returns the consecutive-failure count after which an
// idle worker stops asking: two full sweeps of its peers. Termination
// detection does not need the bound (request/none traffic is not counted
// by the four counters), but an endgame where every idle worker polls
// every busy worker each probe round is pure overhead; going dormant until
// new work arrives caps it. Any newly enqueued work resets the counter.
func (w *worker) stealDormantAfter() int { return 2 * (w.n - 1) }

// maybeSteal sends one KStealReq when this worker is idle and allowed to:
// stealing enabled, nothing in flight, backoff elapsed, not dormant. The
// victim is chosen round-robin over the other PEs; each KStealNone grows
// the wait linearly (idle wake-ups are paced by incoming traffic — in the
// steady state, the driver's probe rounds).
func (w *worker) maybeSteal() {
	s := w.steal
	if s == nil || w.failed || w.stopped || s.outstanding || s.fails >= w.stealDormantAfter() {
		return
	}
	if s.wait > 0 {
		s.wait--
		return
	}
	s.victim = (s.victim + 1) % w.n
	if s.victim == w.pe {
		s.victim = (s.victim + 1) % w.n
	}
	s.outstanding = true
	w.rec(trace.EvStealReq, int64(s.victim), 0)
	w.send(s.victim, newMsg(Msg{Kind: KStealReq}))
}

// stealProbe revives a dormant worker after a few probe rounds: skew that
// arrives late (a victim whose queue grows only after the thieves gave up)
// would otherwise never be stolen for the rest of the run. The endgame
// cost is bounded — at most one fruitless sweep of the peers every
// stealReviveProbes rounds, none of it counted by the four-counter
// detector.
func (w *worker) stealProbe() {
	s := w.steal
	if s.fails < w.stealDormantAfter() {
		return
	}
	s.dormantProbes++
	if s.dormantProbes >= stealReviveProbes {
		s.dormantProbes, s.fails, s.wait = 0, 0, 0
	}
}

// stealMsg handles the steal protocol's frames. Every PE of a job shares
// one Config, so a worker without the layer never legitimately sees one.
func (w *worker) stealMsg(m *Msg) {
	s := w.steal
	if s == nil {
		w.unexpected(m)
		return
	}
	switch m.Kind {
	case KStealReq:
		w.handleStealReq(m)
	case KStealGrant:
		w.installStolen(m)
	case KStealNone:
		s.outstanding = false
		s.fails++
		s.wait = s.fails
		w.rec(trace.EvStealNone, int64(m.From), 0)
	}
}

// stealBatch selects and removes up to half of the stealable backlog: nil
// when the victim is unloaded (fewer than two live entries — it must stay
// loaded after granting) or holds only in-flight SPs. The grant is the
// oldest not-yet-started SPs in age order — for a loop nest, whole outer
// iterations rather than inner fragments. Removal never shifts the deque
// (takeReady).
//
// Distributed (Range-Filtered) templates are pinned: their ROWLO/UNIFLO/…
// instructions clamp the index range to the executing PE's area of
// responsibility, so running one on a different PE would recompute that
// PE's share — a double write, not a migration. Everything else is
// location-independent: its inputs travel in the operand frame.
func (w *worker) stealBatch() []*spInst {
	live := int(w.qdepth())
	if live < 2 {
		return nil
	}
	var cand []int // deque indices of stealable SPs, oldest first
	for i := w.readyHead; i < len(w.ready); i++ {
		sp := w.ready[i]
		if sp == nil || sp.pc != 0 || sp.tmpl.Distributed {
			continue
		}
		cand = append(cand, i)
	}
	if len(cand) == 0 {
		return nil
	}
	limit := min((len(cand)+1)/2, live-1) // steal-half, rounded up so one SP still moves
	if len(cand) > limit {
		cand = cand[:limit]
	}
	return w.takeReady(cand)
}

// handleStealReq answers a peer's steal request: grant up to half of the
// stealable backlog in one batch (leaving a forwarding stub per home ID)
// or decline.
func (w *worker) handleStealReq(m *Msg) {
	thief := int(m.From)
	if thief < 0 || thief >= w.n || thief == w.pe {
		w.fail(fmt.Errorf("steal request from invalid PE %d", thief))
		return
	}
	var batch []*spInst
	if !w.failed {
		batch = w.stealBatch()
	}
	if len(batch) == 0 {
		w.send(thief, newMsg(Msg{Kind: KStealNone}))
		return
	}
	items := make([]StealItem, len(batch))
	for i, sp := range batch {
		// The SP leaves this worker's live set the moment it is granted;
		// the grant in flight keeps the four counters unequal, so a probe
		// round cannot terminate around the migrating batch. One stub per
		// item relays tokens addressed to the home IDs.
		delete(w.insts, sp.id)
		w.steal.forwards[sp.id] = thief
		// The frame travels with the grant; the receiver owns it now (this
		// worker never releases the instance to its free list). The
		// cost-attribution tag travels too, so a migrated iteration keeps
		// billing the iteration (on the loop that spawned it) that caused it.
		items[i] = StealItem{
			SP:       sp.id,
			Tmpl:     int32(sp.tmpl.ID),
			CostLoop: sp.costLoop,
			Sweep:    sp.costSweep,
			CostIter: sp.costIter,
			Args:     sp.frame,
		}
	}
	w.rec(trace.EvStealGrant, int64(thief), int64(len(items)))
	w.send(thief, newMsg(Msg{Kind: KStealGrant, Lists: &MsgLists{Batch: items}}))
}

// installStolen installs each granted SP under its home ID and runs it as
// if it had been spawned here. A stub this worker still holds for an ID is
// cleared: re-acquiring an SP it once granted away must not leave a stub
// that forms a relay cycle once the SP halts here (relay prefers forwards
// over halted).
func (w *worker) installStolen(m *Msg) {
	s := w.steal
	s.outstanding = false
	batch := m.Lists.Batch
	if len(batch) == 0 {
		w.fail(errors.New("empty steal grant"))
		return
	}
	w.rec(trace.EvStealIn, int64(m.From), int64(len(batch)))
	for i := range batch {
		it := &batch[i]
		tmpl := w.prog.Template(int(it.Tmpl))
		var err error
		switch {
		case tmpl == nil:
			err = fmt.Errorf("steal grant with unknown template %d", it.Tmpl)
		case len(it.Args) != tmpl.NSlots:
			err = fmt.Errorf("steal grant for %q with %d slots, want %d", tmpl.Name, len(it.Args), tmpl.NSlots)
		case w.insts[it.SP] != nil:
			err = fmt.Errorf("steal grant duplicates live SP %d", it.SP)
		}
		if err != nil {
			w.fail(err)
			return
		}
		delete(s.forwards, it.SP)
		sp := &spInst{id: it.SP, tmpl: tmpl, frame: it.Args, blocked: isa.None, stolen: true, costLoop: -1}
		if w.adapt != nil {
			sp.costLoop, sp.costSweep, sp.costIter = it.CostLoop, it.Sweep, it.CostIter
		}
		w.insts[sp.id] = sp
		w.enqueue(sp)
		s.steals++
	}
}

// relay handles a token for an SP this worker does not hold but migrated:
// through its forwarding stub to the thief (the relay counts as a data
// message, balancing the extra receive), or dropped if it was stolen in
// and halted here — result tokens an SP never consumes can trail its HALT.
// It reports whether the token was one of those.
func (w *worker) relay(id int64, slot int, v isa.Value) bool {
	s := w.steal
	if thief, ok := s.forwards[id]; ok {
		s.forwarded++
		w.send(thief, newMsg(Msg{Kind: KToken, SP: id, Slot: int32(slot), Val: v}))
		return true
	}
	if _, ok := s.halted[id]; ok {
		s.lateTokens++
		return true
	}
	return false
}
