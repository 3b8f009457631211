package cluster

import (
	"fmt"
	"slices"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
)

// This file holds the worker's distributed Array-Manager role: the message
// half of the I-structure memory. Local accesses go straight to the owned
// shard; remote accesses become KReadReq / KWrite messages to the owner,
// and the owner answers reads with whole-page shipments (KPage) or queues
// them as remote deferred reads released by the eventual write (§4, §5.1).
//
// A remote page is asked for once at a time: the in-flight page table holds
// every page with a request outstanding, and a miss on such a page waits on
// the table instead of asking again. Only the first demand miss (the page's
// leader) sends a KReadReq; the reads that join it are covered by the
// leader's request, because whatever KPage arrives for the page answers
// them all.

// pageKey identifies one (array, page) on the worker side.
type pageKey struct {
	arr  int64
	page int
}

// pageReq is one in-flight page table entry: whether a demand request is
// among the requests outstanding for the page (else only a prefetch is,
// which the owner may drop), and the local reads that joined it.
type pageReq struct {
	demand  bool
	waiters []pageWaiter
}

// maxSpareWaiters bounds the worker's list of drained waiters slices.
const maxSpareWaiters = 8

// pageWaiter is one joined read: the element and its delivery target.
type pageWaiter struct {
	sp   int64
	slot int32
	off  int32
}

// allocMsg builds one KAlloc frame describing h. Each call returns a fresh
// frame with its own Dims: a sent frame is its consumer's, who releases it
// (only a KPage or KDump shares its read-only Vals/Set with the sender, see
// Endpoint).
func allocMsg(h *istructure.Header) *Msg {
	dims := make([]int32, len(h.Dims))
	for i, d := range h.Dims {
		dims[i] = int32(d)
	}
	return newMsg(Msg{Kind: KAlloc, Arr: h.ID, Name: h.Name, Dims: dims,
		Origin: int32(h.Origin), Dist: h.Dist})
}

// allocHeader is allocMsg's inverse: the header a KAlloc frame describes,
// under a job's page size and PE count.
func allocHeader(m *Msg, pageElems, n int) (*istructure.Header, error) {
	dims := make([]int, len(m.Dims))
	for i, d := range m.Dims {
		dims[i] = int(d)
	}
	return istructure.NewHeader(m.Arr, m.Name, dims, pageElems, n, int(m.Origin), m.Dist)
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
	id := istructure.PackID(w.job, w.pe, w.nextArr)
	if name == "" {
		name = fmt.Sprintf("anon%d", id)
	}
	dist := ins.Op == isa.ALLOCD && w.geo.Distributes(elems)
	h, err := istructure.NewHeader(id, name, dims, w.geo.PageElems, w.n, w.pe, dist)
	if err != nil {
		w.fail(fmt.Errorf("%q: %w", sp.tmpl.Name, err))
		return
	}
	w.installArray(h)
	for pe := 0; pe <= w.n; pe++ { // every other worker, plus the driver
		if pe == w.pe {
			continue
		}
		w.send(pe, allocMsg(h))
	}
	sp.frame[ins.Dst] = isa.Array(id)
}

// installArray installs a header, wakes SPs suspended on it, and consumes
// the frames parked for it (see dispatch).
func (w *worker) installArray(h *istructure.Header) {
	if err := w.shard.Install(h); err != nil {
		w.fail(err)
		return
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
			w.consume(m)
		}
	}
}

// execRead implements AREAD. Local present elements are immediate hits;
// local absent elements become deferred reads (the SP blocks when a later
// instruction consumes the slot); remote elements probe the page cache,
// then join the page's in-flight demand request, and otherwise ask the
// owner. The array is resolved to its handle once; the local and cache-hit
// paths then touch no map and allocate nothing. Suspends on a missing
// header (pc not advanced).
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
		if w.heat != nil {
			// The scan detector follows a forward sweep across owned pages
			// into the remote ones.
			a.Scan(h.PageOf(off))
		}
		if res == istructure.ReadHit {
			sp.frame[dst] = v
		}
		// ReadDeferred: the waiter is queued; the releasing write delivers.
		return isa.Next
	}

	if v, _, hit := a.CacheLookup(off); hit {
		w.shard.CacheHits++
		sp.frame[dst] = v
		if w.heat != nil {
			w.heatRead(a, off, true)
		}
		return isa.Next
	}
	if w.heat != nil {
		w.heatRead(a, off, false)
	}
	k := pageKey{h.ID, h.PageOf(off)}
	e := w.inflight[k]
	if e.demand {
		w.joins++
		if n := len(w.spareWaiters); e.waiters == nil && n > 0 {
			e.waiters, w.spareWaiters = w.spareWaiters[n-1], w.spareWaiters[:n-1]
		}
		e.waiters = append(e.waiters, pageWaiter{sp: sp.id, slot: ins.Dst, off: int32(off)})
		w.inflight[k] = e
		return isa.Next
	}
	// No request for the page, or only a prefetch the owner may drop: this
	// read asks itself and leads the page.
	e.demand = true
	w.inflight[k] = e
	w.shard.CacheMisses++
	w.rec(trace.EvPageFetch, h.ID, int64(k.page))
	w.readReq(h, off, sp.id, ins.Dst)
	return isa.Next
}

// readReq asks the owner of element off for it on behalf of (sp, slot).
func (w *worker) readReq(h *istructure.Header, off int, sp int64, slot int32) {
	w.send(h.OwnerOf(off), newMsg(Msg{Kind: KReadReq, Arr: h.ID, Off: int32(off), ReqPE: int32(w.pe), SP: sp, Slot: slot}))
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
	w.send(h.OwnerOf(off), newMsg(Msg{Kind: KWrite, Arr: h.ID, Off: int32(off), Val: val}))
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
		w.send(rw.PE, newMsg(Msg{Kind: KToken, SP: rw.SP, Slot: int32(rw.Slot), Val: val}))
	}
}

// handleReadReq serves a remote read at the owner: it ships the snapshot
// of the whole containing page, and an absent element also queues a remote
// deferred read. The snapshot goes out even then: reads of other elements
// of the page may have joined the request at the requester, and they wait
// on this page. A prefetch hint (SP 0 — never a live instance ID) never
// queues a waiter: nothing blocks on a prefetch, so an unproductive hint
// must cost at most the request frame.
func (w *worker) handleReadReq(a *istructure.Array, m *Msg) {
	off := int(m.Off)
	if _, present := a.Peek(off); !present && m.SP != 0 {
		if err := w.shard.QueueRemote(m.Arr, off, istructure.RemoteWaiter{PE: int(m.ReqPE), SP: m.SP, Slot: int(m.Slot)}); err != nil {
			w.fail(err)
			return
		}
	}
	pageIdx, pg, _, err := a.ExtractPage(off)
	switch {
	case err != nil && m.SP == 0:
		return // page not owned here (stale hint): drop silently
	case err != nil:
		w.fail(err)
		return
	case m.SP == 0 && !slices.Contains(pg.Set, true):
		// An all-absent snapshot would occupy a cache frame at the
		// requester for nothing; the scan will re-ask via a demand read
		// when it actually arrives at the page.
		return
	}
	w.send(int(m.ReqPE), newMsg(Msg{Kind: KPage, Arr: m.Arr, Page: int32(pageIdx), Off: m.Off,
		SP: m.SP, Slot: m.Slot, Vals: pg.Vals, Set: pg.Set}))
}

// handlePage installs a shipped page in the software cache and answers the
// reads waiting on it: the requesting SP if the snapshot holds its element
// (else the owner queued it, and its KToken delivers), and every read that
// joined the page's in-flight entry — from the snapshot when it holds the
// element, otherwise by asking the owner again, where the read becomes an
// ordinary deferred read. With Config.CachePages set the install may evict
// a colder page (CLOCK, inside the shard) — and counts as a refetch if this
// page was itself evicted earlier; reads are answered from the shipped
// snapshot either way, so even a page that is evicted again immediately
// cannot lose one. A prefetched page (SP 0) requested no element.
func (w *worker) handlePage(m *Msg) {
	a := w.shard.Array(m.Arr)
	if a == nil {
		// The requester had the header when it sent the request; a page
		// for an unknown array means protocol corruption.
		w.fail(fmt.Errorf("page for unknown array %d", m.Arr))
		return
	}
	h, k := a.Header(), pageKey{m.Arr, int(m.Page)}
	base := k.page * h.PageElems
	pg := &istructure.CachedPage{Vals: m.Vals, Set: m.Set}
	a.InstallPage(k.page, pg)
	if w.heat != nil && m.SP == 0 {
		w.heat.arrived[k] = struct{}{} // waits for the demand hit it earns credit for
	}
	if m.SP != 0 {
		i := int(m.Off) - base
		if i < 0 || i >= len(pg.Vals) {
			w.fail(fmt.Errorf("page %d of array %d shipped for offset %d outside it", m.Page, m.Arr, m.Off))
			return
		}
		if pg.Set[i] {
			w.deliver(m.SP, int(m.Slot), pg.Vals[i])
		}
	}
	e, ok := w.inflight[k]
	if !ok {
		return
	}
	delete(w.inflight, k)
	for _, wt := range e.waiters {
		if i := int(wt.off) - base; i < len(pg.Vals) && pg.Set[i] {
			w.deliver(wt.sp, int(wt.slot), pg.Vals[i])
		} else {
			w.readReq(h, int(wt.off), wt.sp, wt.slot)
		}
	}
	if e.waiters != nil && len(w.spareWaiters) < maxSpareWaiters {
		w.spareWaiters = append(w.spareWaiters, e.waiters[:0])
	}
}

// handleWrite performs a remote write at the owner.
func (w *worker) handleWrite(a *istructure.Array, m *Msg) {
	w.ownerWrite(a, int(m.Off), m.Val)
}

// handleDumpReq ships this PE's owned segment of an array to the driver
// (result gathering after termination). After termination no element can
// change, so the frame carries the segment itself, not a copy; the driver
// only reads it (mergeDump), and TCP encodes a copy into the frame.
func (w *worker) handleDumpReq(a *istructure.Array, m *Msg) {
	lo, vals, set := a.Segment()
	w.send(w.driverID(), newMsg(Msg{Kind: KDump, Arr: m.Arr, Off: int32(lo), Vals: vals, Set: set}))
}
