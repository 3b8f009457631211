package cluster

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
)

// The steal layer (Config.Steal). An idle worker asks a peer for
// not-yet-started SPs; a loaded victim grants up to half of its stealable
// backlog in one batch and leaves a forwarding stub per granted home ID; the
// thief runs the batch as if it had been spawned there. The core calls in
// when it goes idle (maybeSteal), on every probe (stealProbe), when a token
// finds no live SP (relay), when a stolen-in SP halts (retireGrant) and for
// the four steal kinds (stealMsg); enqueue resets the backoff.

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

	// Steal-grant replay protection. A victim numbers the grants it sends
	// each thief (grantSeq); a thief remembers the highest grant sequence
	// applied per (victim, incarnation) (seenGrant) and drops a whole grant
	// at or below that mark, so a re-delivered completed grant can never
	// double-apply its SPs. Incarnation-keyed: a respawned victim's counters
	// legitimately restart from 1.
	grantSeq  map[int]int64
	seenGrant map[grantKey]int64
	dupGrants int64 // grants dropped by the sequence fence
}

// grantKey identifies one victim incarnation in a thief's seenGrant table.
type grantKey struct {
	pe  int
	inc int32
}

// stealReviveProbes is the number of probe rounds a dormant worker waits
// before retrying a full steal sweep.
const stealReviveProbes = 8

// stealHotMax caps the (array, page) pairs a steal request advertises.
const stealHotMax = 16

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
	// The request advertises the pages local here, so the victim can
	// prefer granting SPs whose operand rows this worker already holds — a
	// stolen iteration that reads a hot row pays cache hits instead of
	// fresh page fetches, even when every candidate reads one shared array.
	w.send(s.victim, &Msg{Kind: KStealReq, Lists: &MsgLists{HotPages: w.hotPagePairs(stealHotMax)}})
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
// one Config, so a worker without the layer never legitimately sees one;
// KStealDone travels only with recovery armed as well.
func (w *worker) stealMsg(m *Msg) {
	s := w.steal
	if s == nil || (m.Kind == KStealDone && w.recover == nil) {
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
	case KStealDone:
		w.handleStealDone(m)
	}
}

// stealBatch selects and removes up to half of the stealable backlog for a
// thief whose locality summary is hotPages ((array, page) pairs): nil when
// the victim is unloaded (fewer than two live entries — it must stay
// loaded after granting) or holds only in-flight SPs. Selection prefers
// SPs whose operand rows lie on the thief's pages (more such rows first)
// and is stable within equal locality, so with no locality signal the
// grant is the oldest not-yet-started SPs in age order — for a loop nest,
// whole outer iterations rather than inner fragments. Removal never shifts
// the deque (takeReady).
//
// Distributed (Range-Filtered) templates are pinned: their ROWLO/UNIFLO/…
// instructions clamp the index range to the executing PE's area of
// responsibility, so running one on a different PE would recompute that
// PE's share — a double write, not a migration. Everything else is
// location-independent: its inputs travel in the operand frame.
func (w *worker) stealBatch(hotPages []int64) []*spInst {
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
		if w.recover != nil && sp.stolen {
			// With recovery armed, a stolen-in SP is pinned: re-granting it
			// would chain grant records across PEs, and a middle hop dying
			// after the SP started at the final thief would make its
			// grantor re-instantiate a second live copy under the same home
			// ID — the two copies would race for each other's tokens. A
			// one-hop migration keeps exactly one re-instantiation
			// authority per grant.
			continue
		}
		cand = append(cand, i)
	}
	if len(cand) == 0 {
		return nil
	}
	limit := min((len(cand)+1)/2, live-1) // steal-half, rounded up so one SP still moves
	if len(hotPages) > 1 && len(cand) > 1 {
		// Rank by the operand rows the thief actually holds, scoring each
		// candidate once (the comparator would otherwise rescan every
		// operand frame O(log k) times per candidate).
		pageSet := make(map[pageKey]struct{}, len(hotPages)/2)
		for i := 0; i+1 < len(hotPages); i += 2 {
			pageSet[pageKey{hotPages[i], int(hotPages[i+1])}] = struct{}{}
		}
		scores := make(map[int]int, len(cand))
		for _, idx := range cand {
			scores[idx] = w.pageScore(w.ready[idx], pageSet)
		}
		sort.SliceStable(cand, func(i, j int) bool {
			return scores[cand[i]] > scores[cand[j]]
		})
	}
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
		batch = w.stealBatch(m.Lists.HotPages)
	}
	if len(batch) == 0 {
		w.send(thief, &Msg{Kind: KStealNone})
		return
	}
	s := w.steal
	items := make([]StealItem, len(batch))
	for i, sp := range batch {
		// The SP leaves this worker's live set the moment it is granted;
		// the grant in flight keeps the four counters unequal, so a probe
		// round cannot terminate around the migrating batch. One stub per
		// item relays tokens addressed to the home IDs.
		delete(w.insts, sp.id)
		s.forwards[sp.id] = thief
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
		if w.recover != nil {
			// A deep copy stays behind: if the thief's incarnation dies
			// holding the SP, this worker re-instantiates it from the copy.
			// The record is dropped when KStealDone reports completion.
			it := items[i]
			it.Args = append([]isa.Value(nil), sp.frame...)
			w.recover.grantLog[sp.id] = grantRec{item: it, thief: thief, from: sp.grantedFrom}
		}
	}
	w.rec(trace.EvStealGrant, int64(thief), int64(len(items)))
	// Grants to each thief are numbered from 1 so the thief can fence a
	// re-delivered (replayed) grant it has already applied.
	s.grantSeq[thief]++
	w.send(thief, &Msg{Kind: KStealGrant, Seq: s.grantSeq[thief], Lists: &MsgLists{Batch: items}})
}

// installStolen installs each granted SP under its home ID and runs it as
// if it had been spawned here.
func (w *worker) installStolen(m *Msg) {
	s := w.steal
	s.outstanding = false
	batch := m.Lists.Batch
	if len(batch) == 0 {
		w.fail(errors.New("empty steal grant"))
		return
	}
	// Grant-sequence fence: a victim numbers its grants per thief, and a
	// re-delivered grant at or below the highest sequence already applied
	// from this (victim, incarnation) is dropped whole — its SPs were
	// installed (and may have run to completion) the first time, so
	// re-applying would fail the duplicate-live-SP check at best and run the
	// work twice at worst. Keyed by incarnation: a respawned victim's
	// numbering legitimately restarts from 1.
	key := grantKey{pe: int(m.From), inc: m.Inc}
	if m.Seq != 0 {
		if m.Seq <= s.seenGrant[key] {
			s.dupGrants++
			return
		}
		s.seenGrant[key] = m.Seq
	}
	w.rec(trace.EvStealIn, int64(m.From), int64(len(batch)))
	for i := range batch {
		if !w.adopt(&batch[i], int(m.From), m.Inc) {
			return
		}
		s.steals++
	}
}

// adopt turns one granted SP into a live instance under its home ID and
// queues it: an item of a steal grant from PE from at incarnation inc, or
// a grant-log copy re-instantiated after its thief died (from is then
// where this worker itself got the SP, -1 if home-spawned here). Any stub
// or grant record this worker still holds for the ID is cleared:
// re-acquiring an SP it once granted away must not leave a stub that forms
// a relay cycle once the SP halts here (relay prefers forwards over
// halted).
func (w *worker) adopt(it *StealItem, from int, inc int32) bool {
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
		return false
	}
	delete(w.steal.forwards, it.SP)
	if w.recover != nil {
		delete(w.recover.grantLog, it.SP)
	}
	sp := &spInst{id: it.SP, tmpl: tmpl, frame: it.Args, blocked: isa.None,
		stolen: from >= 0, grantedFrom: from, grantedInc: inc, costLoop: -1}
	if w.adapt != nil {
		sp.costLoop, sp.costSweep, sp.costIter = it.CostLoop, it.Sweep, it.CostIter
	}
	w.insts[sp.id] = sp
	w.enqueue(sp)
	return true
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
		w.send(thief, &Msg{Kind: KToken, SP: id, Slot: int32(slot), Val: v})
		return true
	}
	if _, ok := s.halted[id]; ok {
		s.lateTokens++
		return true
	}
	return false
}

// retireGrant marks a migrated SP done here — a stolen-in SP that halted,
// or one whose thief reported completion — so late tokens for it drop
// instead of relaying. With recovery armed the completion travels one hop
// back toward its home, to the PE it came from (none if from < 0), so
// every grant record (and stub chain) retires instead of being
// re-instantiated by a later recovery.
func (w *worker) retireGrant(id int64, from int) {
	w.steal.halted[id] = struct{}{}
	if w.recover != nil && from >= 0 {
		w.send(from, &Msg{Kind: KStealDone, SP: id})
	}
}

// handleStealDone retires one completed steal grant: the stub becomes a
// halted tombstone (late tokens drop here instead of relaying to a thief
// that would drop them anyway), the grant record is freed, and the notice
// is relayed one hop toward the SP's home so the whole chain cleans up.
func (w *worker) handleStealDone(m *Msg) {
	e, ok := w.recover.grantLog[m.SP]
	if !ok {
		return
	}
	delete(w.recover.grantLog, m.SP)
	delete(w.steal.forwards, m.SP)
	w.retireGrant(m.SP, e.from)
}

// hotPagePairs flattens the shard's page-granular locality summary into
// the wire encoding: (array, page) pairs in one int64 slice. Array IDs
// use the high bits of their 64-bit space, so the pair encoding — not a
// packed single word — is what keeps the page index intact.
func (w *worker) hotPagePairs(limit int) []int64 {
	hps := w.shard.HotPages(limit)
	if len(hps) == 0 {
		return nil
	}
	out := make([]int64, 0, 2*len(hps))
	for _, hp := range hps {
		out = append(out, hp.Arr, int64(hp.Page))
	}
	return out
}

// pageScore counts how many of the thief's resident pages this SP's
// operands would actually touch: for each array operand in the frame,
// the pages holding the rows named by the frame's integer operands. Two
// iterations of a sweep over one shared array name the same array, but
// iteration i scores here on the page holding row i, which is exactly
// what the thief has or hasn't.
func (w *worker) pageScore(sp *spInst, pages map[pageKey]struct{}) int {
	n := 0
	for _, v := range sp.frame {
		if v.Kind != isa.KindArray {
			continue
		}
		h := w.shard.Header(v.I)
		if h == nil {
			continue
		}
		for _, iv := range sp.frame {
			if iv.Kind != isa.KindInt {
				continue
			}
			row := iv.I
			if row < 1 || row > int64(h.Dims[0]) {
				continue
			}
			off := int(row) - 1
			if len(h.Dims) == 2 {
				off = (int(row) - 1) * h.RowLen()
			}
			if _, ok := pages[pageKey{v.I, h.PageOf(off)}]; ok {
				n++
			}
		}
	}
	return n
}
