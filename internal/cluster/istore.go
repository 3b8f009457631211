package cluster

import (
	"fmt"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
)

// This file holds the worker's distributed Array-Manager role: the message
// half of the I-structure memory. Local accesses go straight to the owned
// shard; remote accesses become KReadReq / KWrite messages to the owner,
// and the owner answers reads with whole-page shipments (KPage) or queues
// them as remote deferred reads released by the eventual write (§4, §5.1).

// allocMsg builds one KAlloc frame describing h — the single definition of
// the alloc broadcast's wire shape, shared by the original broadcast and
// both replay paths (worker and driver). Each call returns a fresh message
// with its own slices: a sent Msg is receiver-owned.
func allocMsg(h *istructure.Header) *Msg {
	dims := make([]int32, len(h.Dims))
	for i, d := range h.Dims {
		dims[i] = int32(d)
	}
	return &Msg{Kind: KAlloc, Arr: h.ID, Name: h.Name, Dims: dims,
		Origin: int32(h.Origin), Dist: h.Dist}
}

// execAlloc implements ALLOC/ALLOCD: build the header, install the local
// segment, broadcast the header to every other PE and the driver, and hand
// the array ID to the allocating SP.
func (w *worker) execAlloc(sp *spInst, ins *isa.DInstr, args []int, name string) {
	dims := make([]int, len(args))
	elems := 1
	for i, s := range args {
		dims[i] = int(sp.frame[s].AsInt())
		elems *= dims[i]
	}
	w.nextArr++
	id := packJobID(w.job, w.pe, w.inc, w.nextArr)
	if name == "" {
		name = fmt.Sprintf("anon%d", id)
	}
	dist := ins.Op == isa.ALLOCD && elems >= w.geo.DistThreshold && w.n > 1
	h, err := istructure.NewHeader(id, name, dims, w.geo.PageElems, w.n, w.pe, dist)
	if err != nil {
		w.fail(fmt.Errorf("%q: %w", sp.tmpl.Name, err))
		return
	}
	w.installArray(h)
	if w.recover {
		w.allocLog = append(w.allocLog, h)
	}
	for pe := 0; pe <= w.n; pe++ { // every other worker, plus the driver
		if pe == w.pe {
			continue
		}
		w.send(pe, allocMsg(h))
	}
	sp.frame[ins.Dst] = isa.Array(id)
}

// installArray installs a header, wakes SPs suspended on it, and replays
// remote messages that arrived before the broadcast.
func (w *worker) installArray(h *istructure.Header) {
	fresh := w.shard.Header(h.ID) == nil
	if err := w.shard.Install(h); err != nil {
		w.fail(err)
		return
	}
	if fresh {
		// The install order is the checkpoint-dump iteration order; a
		// replayed duplicate broadcast must not enter the list twice.
		w.arrays = append(w.arrays, h.ID)
	}
	if sps := w.waitArray[h.ID]; len(sps) > 0 {
		for _, sp := range sps {
			w.enqueue(sp)
		}
		delete(w.waitArray, h.ID)
	}
	if msgs := w.pending[h.ID]; len(msgs) > 0 {
		delete(w.pending, h.ID)
		for _, m := range msgs {
			switch m.Kind {
			case KReadReq:
				w.handleReadReq(m)
			case KWrite:
				w.handleWrite(m)
			case KDumpReq:
				w.handleDumpReq(m)
			case KRestore:
				w.handleRestore(m)
			}
		}
	}
}

// execRead implements AREAD. Local present elements are immediate hits;
// local absent elements become deferred reads (the SP blocks when a later
// instruction consumes the slot); remote elements probe the page cache and
// otherwise ask the owner. The array is resolved to its handle once; the
// local and cache-hit paths then touch no map and allocate nothing.
// Suspends on a missing header (pc not advanced).
func (w *worker) execRead(sp *spInst, ins *isa.DInstr, idx []int) isa.Step {
	a := w.array(sp, ins.A)
	if a == nil {
		return isa.Suspend
	}
	h := a.Header()
	off, err := h.OffsetOf(sp.frame, idx)
	if err != nil {
		w.fail(fmt.Errorf("%q: %w", sp.tmpl.Name, err))
		return isa.Next
	}
	dst := int(ins.Dst)
	sp.frame[dst] = isa.Value{}

	v, res := a.ReadLocal(off, istructure.Waiter{PE: w.pe, SP: sp.id, Slot: dst})
	if res != istructure.ReadRemote {
		if res == istructure.ReadHit {
			sp.frame[dst] = v
		}
		// ReadDeferred: the waiter is queued; the releasing write delivers.
		return isa.Next
	}

	if v, _, hit := a.CacheLookup(off); hit {
		w.shard.CacheHits++
		w.notePrefetchHit(h.ID, h.PageOf(off))
		sp.frame[dst] = v
		w.maybePrefetch(a, off)
		return isa.Next
	}
	w.shard.CacheMisses++
	w.rec(trace.EvPageFetch, h.ID, int64(h.PageOf(off)))
	w.maybePrefetch(a, off)
	owner := h.OwnerOf(off)
	if w.recover {
		// Track the in-flight read so it can be re-issued if the owner is
		// respawned before answering (the entry clears on delivery).
		w.outReads[outReadKey{sp: sp.id, slot: ins.Dst}] =
			outRead{arr: h.ID, off: int32(off), owner: owner}
	}
	w.send(owner, &Msg{
		Kind:  KReadReq,
		Arr:   h.ID,
		Off:   int32(off),
		ReqPE: int32(w.pe),
		SP:    sp.id,
		Slot:  ins.Dst,
	})
	return isa.Next
}

// execWrite implements AWRITE: owned elements are written in place (and
// release queued readers); remote elements travel to the owner as a KWrite.
// Suspends on a missing header.
func (w *worker) execWrite(sp *spInst, ins *isa.DInstr, idx []int) isa.Step {
	a := w.array(sp, ins.A)
	if a == nil {
		return isa.Suspend
	}
	h := a.Header()
	off, err := h.OffsetOf(sp.frame, idx)
	if err != nil {
		w.fail(fmt.Errorf("%q: %w", sp.tmpl.Name, err))
		return isa.Next
	}
	val := sp.frame[ins.B]
	if a.Owns(off) {
		w.ownerWrite(a, off, val)
		return isa.Next
	}
	owner := h.OwnerOf(off)
	if w.recover {
		// Log the remote write: if the owner is respawned with an empty
		// shard, the log replays and the single-assignment store absorbs
		// any overlap with re-executed work idempotently.
		w.writeLog[owner] = append(w.writeLog[owner], writeRec{arr: h.ID, off: int32(off), val: val})
	}
	w.send(owner, &Msg{Kind: KWrite, Arr: h.ID, Off: int32(off), Val: val})
	return isa.Next
}

// ownerWrite stores an owned element and releases deferred readers: local
// waiters get a direct frame delivery, remote waiters a KToken ("Array
// Write: ... number_queued_reads * message_time", §5.1).
func (w *worker) ownerWrite(a *istructure.Array, off int, val isa.Value) {
	local, remote, err := a.Write(off, val)
	if err != nil {
		w.fail(err)
		return
	}
	for _, wt := range local {
		w.deliver(wt.SP, wt.Slot, val)
	}
	for _, rw := range remote {
		w.send(rw.PE, &Msg{Kind: KToken, SP: rw.SP, Slot: int32(rw.Slot), Val: val})
	}
}

// handleReadReq serves a remote read at the owner: present elements ship
// the whole containing page; absent elements queue a remote deferred read.
// A prefetch hint (SP 0 — never a live instance ID) ships the page
// snapshot as-is and never queues a waiter: nothing blocks on a prefetch,
// so an unproductive hint must cost at most the request frame.
func (w *worker) handleReadReq(m *Msg) {
	a := w.shard.Array(m.Arr)
	if a == nil {
		w.pending[m.Arr] = append(w.pending[m.Arr], m)
		return
	}
	off := int(m.Off)
	if m.SP == 0 {
		pageIdx, pg, _, err := a.ExtractPage(off)
		if err != nil {
			return // page not owned here (stale hint): drop silently
		}
		any := false
		for _, set := range pg.Set {
			if set {
				any = true
				break
			}
		}
		if !any {
			// An all-absent snapshot would occupy a cache frame at the
			// requester for nothing; the scan will re-ask via a demand
			// read when it actually arrives at the page.
			return
		}
		w.send(int(m.ReqPE), &Msg{
			Kind: KPage,
			Arr:  m.Arr,
			Page: int32(pageIdx),
			Off:  m.Off,
			Vals: pg.Vals,
			Set:  pg.Set,
		})
		return
	}
	if _, present := a.Peek(off); present {
		pageIdx, pg, _, err := a.ExtractPage(off)
		if err != nil {
			w.fail(err)
			return
		}
		w.send(int(m.ReqPE), &Msg{
			Kind: KPage,
			Arr:  m.Arr,
			Page: int32(pageIdx),
			Off:  m.Off,
			SP:   m.SP,
			Slot: m.Slot,
			Vals: pg.Vals,
			Set:  pg.Set,
		})
		return
	}
	if err := w.shard.QueueRemote(m.Arr, off, istructure.RemoteWaiter{PE: int(m.ReqPE), SP: m.SP, Slot: int(m.Slot)}); err != nil {
		w.fail(err)
	}
}

// handlePage installs a shipped page in the software cache and delivers the
// requested element to the waiting SP. With Config.CachePages set the
// install may evict a colder page (CLOCK, inside the shard) — and counts as
// a refetch if this page was itself evicted earlier; the element is
// delivered from the shipped snapshot either way, so even a page that is
// evicted again immediately cannot lose the read that fetched it.
func (w *worker) handlePage(m *Msg) {
	a := w.shard.Array(m.Arr)
	if a == nil {
		// The requester had the header when it sent the request; a page
		// for an unknown array means protocol corruption.
		w.fail(fmt.Errorf("page for unknown array %d", m.Arr))
		return
	}
	pg := &istructure.CachedPage{Vals: m.Vals, Set: m.Set}
	a.InstallPage(int(m.Page), pg)
	if w.heat.on {
		delete(w.heat.inflight, heatKey{m.Arr, int(m.Page)})
	}
	if m.SP == 0 {
		// A prefetched page: the install is the whole job. No element was
		// requested, so neither the presence check nor a delivery applies;
		// the first demand hit on the page credits the prefetch.
		if w.heat.on {
			w.heat.arrived[heatKey{m.Arr, int(m.Page)}] = struct{}{}
		}
		return
	}
	i := int(m.Off) - int(m.Page)*a.Header().PageElems
	if i < 0 || i >= len(pg.Vals) || !pg.Set[i] {
		w.fail(fmt.Errorf("page %d of array %d shipped without requested element", m.Page, m.Arr))
		return
	}
	w.deliver(m.SP, int(m.Slot), pg.Vals[i])
}

// handleWrite performs a remote write at the owner.
func (w *worker) handleWrite(m *Msg) {
	a := w.shard.Array(m.Arr)
	if a == nil {
		w.pending[m.Arr] = append(w.pending[m.Arr], m)
		return
	}
	w.ownerWrite(a, int(m.Off), m.Val)
}

// handleRestore applies one checkpoint-snapshot chunk to a respawned
// owner's segment: each present element becomes an idempotent owner write,
// releasing any deferred readers already queued against the empty shard.
// Kind information survives the round trip — the driver snapshots raw
// values, not a rendered form.
func (w *worker) handleRestore(m *Msg) {
	a := w.shard.Array(m.Arr)
	if a == nil {
		w.pending[m.Arr] = append(w.pending[m.Arr], m)
		return
	}
	for i, set := range m.Set {
		if set {
			w.ownerWrite(a, int(m.Off)+i, m.Vals[i])
		}
	}
}

// handleDumpReq ships this PE's owned segment of an array to the driver
// (result gathering after termination).
func (w *worker) handleDumpReq(m *Msg) {
	a := w.shard.Array(m.Arr)
	if a == nil {
		w.pending[m.Arr] = append(w.pending[m.Arr], m)
		return
	}
	lo, hi := a.Header().SegmentElems(w.pe)
	vals := make([]isa.Value, hi-lo)
	set := make([]bool, hi-lo)
	for off := lo; off < hi; off++ {
		if v, present := a.Peek(off); present {
			vals[off-lo] = v
			set[off-lo] = true
		}
	}
	w.send(w.driverID(), &Msg{Kind: KDump, Arr: m.Arr, Off: int32(lo), Vals: vals, Set: set})
}
