package sim

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/istructure"
	"repro/internal/rtcfg"
	"repro/internal/timing"
)

// send hands r to p's Routing Unit at time t as one small message: RU
// service, r.flight in the network, then r.dur on r.unit (a unit of PE
// r.dst), then the r.kind stage.
func (m *Machine) send(p *pe, t int64, r msg) {
	m.serve(&p.ru, t, timing.SmallMessageRUTime, evRU, m.newMsg(r))
}

// array returns this PE's handle of the array with the given ID, or nil.
func (p *pe) array(id int64) *istructure.Array {
	if id <= 0 || id >= int64(len(p.arrs)) {
		return nil
	}
	return p.arrs[id]
}

// performAlloc implements the (distributing) allocate operator of §4.1.
// The array ID is delivered split-phase: "the SP initiating the allocation
// is not blocked while the allocate operation is in progress".
//
// State (headers and shard segments) is installed eagerly on every PE so
// that a racing writer can never observe a half-allocated array; the
// *timing* of the allocation — local AM service, broadcast messages, remote
// AM service — is charged asynchronously exactly as in the paper.
func (p *pe) performAlloc(sp *spInst, ins *isa.DInstr, args []int, now int64) isa.Step {
	m := p.m
	dims := make([]int, len(args))
	elems := 1
	for i, a := range args {
		dims[i] = int(sp.frame[a].AsInt())
		elems *= dims[i]
	}
	m.nextArray++
	id := m.nextArray
	geo := rtcfg.Geometry{PEs: m.cfg.NumPEs, PageElems: m.cfg.PageElems}
	dist := ins.Op == isa.ALLOCD && geo.Distributes(elems) && !m.cfg.ZeroOverhead
	name := sp.code.tmpl.Code[sp.pc].Comment
	if name == "" {
		name = fmt.Sprintf("anon%d", id)
	}
	h, err := istructure.NewHeader(id, name, dims, m.cfg.PageElems, m.cfg.NumPEs, p.id, dist)
	if err != nil {
		m.fail(fmt.Errorf("sim: SP %q pc %d: %w", sp.code.tmpl.Name, sp.pc, err))
		return isa.End
	}
	if _, seen := m.byName[name]; !seen {
		m.nameSeq = append(m.nameSeq, name)
	}
	m.byName[name] = id
	for _, q := range m.pes {
		if err := q.shard.Install(h); err != nil {
			m.fail(err)
			return isa.End
		}
		q.arrs = append(q.arrs, q.shard.Array(id))
	}
	m.counts.ArraysAlloced++
	if m.tracing {
		m.trace(now, p.id, "alloc %q id=%d dims=%v dist=%v", name, id, dims, dist)
	}

	sp.frame[ins.Dst] = isa.Value{}
	if m.cfg.ZeroOverhead {
		m.deliver(now, sp.id, int(ins.Dst), isa.Array(id))
		return isa.Next
	}
	// Local Array Manager builds the header, allocates space, returns the ID
	// to the requesting SP, then broadcasts to all other PEs (§4.1).
	m.serve(&p.am, now, timing.AMAllocTime, evAllocDone,
		m.newMsg(msg{src: int32(p.id), sp: sp.id, slot: int(ins.Dst), arr: id}))
	return isa.End
}

// allocDone is the allocating PE's AM finishing an allocate: the ID goes to
// the requesting SP, and a distributed array is announced to every other PE,
// whose AM builds its own header (nobody waits for that).
func (m *Machine) allocDone(t int64, r msg) {
	m.deliver(t, r.sp, r.slot, isa.Array(r.arr))
	p := m.pes[r.src]
	if !p.arrs[r.arr].Header().Dist {
		return
	}
	for _, q := range m.pes {
		if q != p {
			m.counts.SmallMsgs++
			m.send(p, t, msg{kind: evNone, unit: &q.am, flight: timing.NetworkTime, dur: timing.AMAllocTime})
		}
	}
}

// resolveAccess decodes an array access instruction (its array operand is
// a handle: the executor checked) into this PE's handle of the array and the
// element's linear offset.
func (p *pe) resolveAccess(sp *spInst, arrSlot int32, idxSlots []int) (*istructure.Array, int, bool) {
	m := p.m
	id := sp.frame[arrSlot].I
	a := p.array(id)
	if a == nil {
		m.fail(fmt.Errorf("sim: SP %q pc %d: unknown array id %d", sp.code.tmpl.Name, sp.pc, id))
		return nil, 0, false
	}
	off, err := a.Header().OffsetOf(sp.frame, idxSlots)
	if err != nil {
		m.fail(fmt.Errorf("sim: SP %q pc %d: %w", sp.code.tmpl.Name, sp.pc, err))
		return nil, 0, false
	}
	return a, off, true
}

// performRead implements the split-phase I-structure read of §4/5.1. The
// 2.7 µs address-arithmetic cost was already charged by the EU. A local
// present element is delivered immediately (and the burst continues); all
// other cases go through the Array Manager and end the burst.
func (p *pe) performRead(sp *spInst, ins *isa.DInstr, args []int, now int64) isa.Step {
	m := p.m
	a, off, ok := p.resolveAccess(sp, ins.A, args)
	if !ok {
		return isa.End
	}
	dst := int(ins.Dst)
	sp.frame[dst] = isa.Value{}
	r := msg{src: int32(p.id), arr: a.Header().ID, off: off, sp: sp.id, slot: dst}

	if a.Owns(off) {
		m.counts.LocalReads++
		if v, present := a.Peek(off); present {
			sp.frame[dst] = v
			return isa.Next
		}
		// Element absent: the AM enqueues the read (I-structure deferred
		// read); the matching write will release it.
		m.serve(&p.am, now, timing.AMEnqueueTime, evLocalRead, m.newMsg(r))
		return isa.End
	}

	// Remote element: probe the software page cache first (§4).
	m.counts.RemoteReads++
	r.dst = int32(a.Header().OwnerOf(off))
	if m.cfg.Stall {
		// Control-driven baseline: the EU waits out the access when the
		// data already exists and is merely remote (pure communication
		// latency, which P&R cannot hide). A read of a value that has not
		// been produced yet is a true dependence — a static schedule would
		// have ordered it after the producer, so it blocks normally.
		if _, _, hit := a.CacheLookup(off); hit {
			p.stallOn = dst
		} else if _, present := m.pes[r.dst].arrs[r.arr].Peek(off); present {
			p.stallOn = dst
		}
	}
	m.serve(&p.am, now, timing.AMCachedReadTime, evProbe, m.newMsg(r))
	return isa.End
}

// localRead is the AM enqueueing a read of an owned element that was absent
// when the EU issued it.
func (m *Machine) localRead(t int64, r msg) {
	w := istructure.Waiter{PE: int(r.src), SP: r.sp, Slot: r.slot}
	if v, res := m.pes[r.src].arrs[r.arr].ReadLocal(r.off, w); res == istructure.ReadHit {
		// The write landed between issue and AM service.
		m.deliver(t, r.sp, r.slot, v)
	}
}

// probeCache is the requester's AM looking a remote element up in the page
// cache: a hit is delivered, a miss (always, with DisableCache) ships a read
// request to the owner PE. The owner returns the whole page if the element
// is present, else queues the request. Read requests are synchronous
// (unbatchable), so they pay Dunigan's full short-message latency in flight.
func (m *Machine) probeCache(t int64, r msg) {
	p := m.pes[r.src]
	if !m.cfg.DisableCache {
		if v, _, hit := p.arrs[r.arr].CacheLookup(r.off); hit {
			p.shard.CacheHits++
			m.deliver(m.extend(&p.am, t, timing.AMDeliverTime), r.sp, r.slot, v)
			return
		}
		t = m.extend(&p.am, t, timing.AMCacheMissExtra)
	}
	p.shard.CacheMisses++
	m.counts.SmallMsgs++
	r.kind, r.unit, r.dur = evReadReq, &m.pes[r.dst].am, timing.AMRemoteReadTime
	r.flight = timing.SyncMessageFlight + timing.NetworkTime
	m.send(p, t, r)
}

// serveReadRequest is the owner's AM answering a remote read: the page (or,
// with DisableCache, the value) goes back if the element is present, else
// the request waits for the write.
func (m *Machine) serveReadRequest(t int64, r msg) {
	p := m.pes[r.dst]
	a := p.arrs[r.arr]
	v, present := a.Peek(r.off)
	switch {
	case !present:
		m.extend(&p.am, t, timing.AMEnqueueTime)
		if err := p.shard.QueueRemote(r.arr, r.off, istructure.RemoteWaiter{PE: int(r.src), SP: r.sp, Slot: r.slot}); err != nil {
			m.fail(err)
		}
	case m.cfg.DisableCache:
		p.sendValue(t, int(r.src), r.sp, r.slot, v)
	default:
		p.sendPage(t, a, r)
	}
}

// sendPage extracts the page containing r.off and ships it to the requester
// r.src, where it is installed in the software cache and the requested
// element is delivered to the waiting SP.
//
// The Routing Unit is occupied only for the message *setup* (the batched
// small-message estimate): on the iPSC/2's Direct-Connect hardware the
// transfer itself is DMA-driven, so Dunigan's long-message equation is
// charged as in-flight latency, not node occupancy.
func (p *pe) sendPage(t int64, a *istructure.Array, r msg) {
	m := p.m
	pageIdx, pg, elems, err := a.ExtractPage(r.off)
	if err != nil {
		m.fail(err)
		return
	}
	sendEnd := m.extend(&p.am, t, timing.PageSendTime(elems))
	m.counts.PageMsgs++
	r.kind, r.unit, r.dst, r.page, r.pageIdx = evPage, &m.pes[r.src].am, r.src, pg, pageIdx
	r.flight = timing.DuniganTime(elems*timing.ElemBytes) + timing.NetworkTime
	r.dur = timing.PageReceiveTime(elems)
	m.send(p, sendEnd, r)
}

// receivePage is the requester's AM taking a page in: the cache owns the
// snapshot from here on, and the element that was asked for is delivered.
func (m *Machine) receivePage(t int64, r msg) {
	p := m.pes[r.dst]
	a := p.arrs[r.arr]
	a.InstallPage(r.pageIdx, r.page)
	i := r.off - r.pageIdx*a.Header().PageElems
	if i < 0 || i >= len(r.page.Vals) || !r.page.Set[i] {
		m.fail(fmt.Errorf("sim: page %d of array %d shipped without requested element", r.pageIdx, r.arr))
		return
	}
	m.deliver(m.extend(&p.am, t, timing.AMDeliverTime), r.sp, r.slot, r.page.Vals[i])
}

// sendValue ships a single element value to a waiting SP on another PE as a
// small message (used by deferred-read releases and the no-cache ablation).
// Replies are synchronous — the reader is waiting — so they pay Dunigan's
// full short-message latency.
func (p *pe) sendValue(t int64, reqPE int, spID int64, dstSlot int, v isa.Value) {
	p.m.counts.SmallMsgs++
	p.m.send(p, t, msg{kind: evToken, unit: &p.m.pes[reqPE].mu, sp: spID, slot: dstSlot, val: v,
		flight: timing.SyncMessageFlight + timing.NetworkTime, dur: timing.MatchTime})
}

// performWrite implements the I-structure write (§5.1 Array Manager):
// local writes release queued local readers and ship pages to queued remote
// readers; remote writes travel to the owner PE.
func (p *pe) performWrite(sp *spInst, ins *isa.DInstr, args []int, now int64) {
	m := p.m
	a, off, ok := p.resolveAccess(sp, ins.A, args)
	if !ok {
		return
	}
	val := sp.frame[ins.B]
	if m.cfg.ZeroOverhead {
		local, _, err := a.Write(off, val) // one PE: no remote readers
		if err != nil {
			m.fail(fmt.Errorf("sim: SP %q: %w", sp.code.tmpl.Name, err))
			return
		}
		for _, w := range local {
			m.deliver(now, w.SP, w.Slot, val)
		}
		m.counts.LocalWrites++
		return
	}
	r := msg{kind: evWrite, dst: int32(p.id), tmpl: sp.ti, arr: a.Header().ID, off: off,
		val: val, flight: timing.NetworkTime, dur: timing.AMWriteTime}
	if a.Owns(off) {
		m.counts.LocalWrites++
		m.serve(&p.am, now, r.dur, evWrite, m.newMsg(r))
		return
	}
	// Remote write: "the value is sent to the target PE, which writes it
	// into the appropriate array slot" (§5.1).
	m.counts.RemoteWrites++
	m.counts.SmallMsgs++
	r.dst = int32(a.Header().OwnerOf(off))
	r.unit = &m.pes[r.dst].am
	m.send(p, now, r)
}

// ownerWrite performs the write on the owning PE's Array Manager and
// releases any deferred local readers and queued remote page requests.
func (m *Machine) ownerWrite(t int64, r msg) {
	p := m.pes[r.dst]
	local, remote, err := p.arrs[r.arr].Write(r.off, r.val)
	if err != nil {
		m.fail(fmt.Errorf("sim: SP %q: %w", m.code[r.tmpl].tmpl.Name, err))
		return
	}
	if n := int64(len(local) + len(remote)); n > 0 {
		// "Array Write: memory_write_time + number_queued_reads *
		// message_time" — release each deferred reader.
		end := m.extend(&p.am, t, n*timing.AMPerQueuedRead)
		for _, w := range local {
			m.deliver(end, w.SP, w.Slot, r.val)
		}
		// Queued remote readers receive the value as a token (pages
		// are only shipped for reads that find the element present,
		// §5.1 Array Manager).
		for _, rw := range remote {
			p.sendValue(end, rw.PE, rw.SP, rw.Slot, r.val)
		}
	}
}
