package sim

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/istructure"
	"repro/internal/timing"
)

// performAlloc implements the (distributing) allocate operator of §4.1.
// The array ID is delivered split-phase: "the SP initiating the allocation
// is not blocked while the allocate operation is in progress".
//
// State (headers and shard segments) is installed eagerly on every PE so
// that a racing writer can never observe a half-allocated array; the
// *timing* of the allocation — local AM service, broadcast messages, remote
// AM service — is charged asynchronously exactly as in the paper.
func (p *pe) performAlloc(sp *spInst, in *isa.Instr, now int64) (endBurst bool) {
	m := p.m
	dims := make([]int, len(in.Args))
	elems := 1
	for i, a := range in.Args {
		dims[i] = int(sp.frame[a].AsInt())
		elems *= dims[i]
	}
	m.nextArray++
	id := m.nextArray
	dist := in.Op == isa.ALLOCD && m.cfg.NumPEs > 1 && elems >= m.cfg.DistThreshold && !m.cfg.ZeroOverhead
	name := in.Comment
	if name == "" {
		name = fmt.Sprintf("anon%d", id)
	}
	h, err := istructure.NewHeader(id, name, dims, m.cfg.PageElems, m.cfg.NumPEs, p.id, dist)
	if err != nil {
		m.fail(fmt.Errorf("sim: SP %q pc %d: %w", sp.tmpl.Name, sp.pc, err))
		return true
	}
	m.arrays[id] = h
	if _, seen := m.byName[name]; !seen {
		m.nameSeq = append(m.nameSeq, name)
	}
	m.byName[name] = id
	for _, q := range m.pes {
		if err := q.shard.Install(h); err != nil {
			m.fail(err)
			return true
		}
	}
	m.counts.ArraysAlloced++
	m.trace(now, p.id, "alloc %q id=%d dims=%v dist=%v", name, id, dims, dist)

	sp.present[in.Dst] = false
	spID, dst := sp.id, in.Dst
	if m.cfg.ZeroOverhead {
		m.deliver(now, spID, dst, isa.Array(id))
		return false
	}
	// Local Array Manager builds the header, allocates space, returns the ID
	// to the requesting SP, then broadcasts to all other PEs (§4.1).
	m.serve(&p.am, now, timing.AMAllocTime, func(t int64) {
		m.deliver(t, spID, dst, isa.Array(id))
		if !dist {
			return
		}
		for _, q := range m.pes {
			if q.id == p.id {
				continue
			}
			target := q
			m.counts.SmallMsgs++
			m.serve(&p.ru, t, timing.SmallMessageRUTime, func(t2 int64) {
				m.at(t2+timing.NetworkTime, func(t3 int64) {
					m.serve(&target.am, t3, timing.AMAllocTime, nil)
				})
			})
		}
	})
	return true
}

// resolveAccess decodes an array access instruction into (header, offset).
func (p *pe) resolveAccess(sp *spInst, arrSlot int, idxSlots []int) (*istructure.Header, int, bool) {
	m := p.m
	hv := sp.frame[arrSlot]
	if hv.Kind != isa.KindArray {
		m.fail(fmt.Errorf("sim: SP %q pc %d: %s is not an array handle", sp.tmpl.Name, sp.pc, hv))
		return nil, 0, false
	}
	h := m.header(hv.I)
	if h == nil {
		m.fail(fmt.Errorf("sim: SP %q pc %d: unknown array id %d", sp.tmpl.Name, sp.pc, hv.I))
		return nil, 0, false
	}
	off, err := h.OffsetOf(sp.frame, idxSlots)
	if err != nil {
		m.fail(fmt.Errorf("sim: SP %q pc %d: %w", sp.tmpl.Name, sp.pc, err))
		return nil, 0, false
	}
	return h, off, true
}

// performRead implements the split-phase I-structure read of §4/5.1. The
// 2.7 µs address-arithmetic cost was already charged by the EU. A local
// present element is delivered immediately (and the burst continues); all
// other cases go through the Array Manager and end the burst.
func (p *pe) performRead(sp *spInst, in *isa.Instr, now int64) (endBurst bool) {
	m := p.m
	h, off, ok := p.resolveAccess(sp, in.A, in.Args)
	if !ok {
		return true
	}
	sp.present[in.Dst] = false
	spID, dst := sp.id, in.Dst

	if m.cfg.ZeroOverhead {
		if v, present := p.shard.Peek(h.ID, off); present {
			sp.set(in.Dst, v)
			m.counts.LocalReads++
			return false
		}
		// Sequential semantics should never read ahead of a write; fall
		// through to the deferred path so the deadlock detector reports it.
	}

	owner := h.OwnerOf(off)
	if owner == p.id {
		if v, present := p.shard.Peek(h.ID, off); present {
			sp.set(in.Dst, v)
			m.counts.LocalReads++
			return false
		}
		// Element absent: the AM enqueues the read (I-structure deferred
		// read); the matching write will release it.
		m.counts.LocalReads++
		w := istructure.Waiter{PE: p.id, SP: spID, Slot: dst}
		arr := h.ID
		m.serve(&p.am, now, timing.AMEnqueueTime, func(t int64) {
			v, res, err := p.shard.ReadLocal(arr, off, w)
			if err != nil {
				m.fail(err)
				return
			}
			if res == istructure.ReadHit {
				// The write landed between issue and AM service.
				m.deliver(t, spID, dst, v)
			}
		})
		return true
	}

	// Remote element: probe the software page cache first (§4).
	m.counts.RemoteReads++
	arr := h.ID
	if m.cfg.Stall {
		// Control-driven baseline: the EU waits out the access when the
		// data already exists and is merely remote (pure communication
		// latency, which P&R cannot hide). A read of a value that has not
		// been produced yet is a true dependence — a static schedule would
		// have ordered it after the producer, so it blocks normally.
		if _, _, hit := p.shard.CacheLookup(arr, h, off); hit {
			p.stallOn = dst
		} else if _, present := m.pes[owner].shard.Peek(h.ID, off); present {
			p.stallOn = dst
		}
	}
	if m.cfg.DisableCache {
		m.serve(&p.am, now, timing.AMCachedReadTime, func(t int64) {
			p.shard.CacheMisses++
			p.sendReadRequest(t, arr, h, off, owner, spID, dst)
		})
		return true
	}
	m.serve(&p.am, now, timing.AMCachedReadTime, func(t int64) {
		if v, _, hit := p.shard.CacheLookup(arr, h, off); hit {
			p.shard.CacheHits++
			end := m.extend(&p.am, t, timing.AMDeliverTime)
			m.deliver(end, spID, dst, v)
			return
		}
		p.shard.CacheMisses++
		end := m.extend(&p.am, t, timing.AMCacheMissExtra)
		p.sendReadRequest(end, arr, h, off, owner, spID, dst)
	})
	return true
}

// sendReadRequest ships a read request to the owner PE; the owner returns
// the whole page if the element is present, else queues the request. Read
// requests are synchronous (unbatchable), so they pay Dunigan's full
// short-message latency in flight.
func (p *pe) sendReadRequest(t int64, arr int64, h *istructure.Header, off, owner int, spID int64, dst int) {
	m := p.m
	m.counts.SmallMsgs++
	target := m.pes[owner]
	m.serve(&p.ru, t, timing.SmallMessageRUTime, func(t2 int64) {
		m.at(t2+timing.SyncMessageFlight+timing.NetworkTime, func(t3 int64) {
			m.serve(&target.am, t3, timing.AMRemoteReadTime, func(t4 int64) {
				if v, present := target.shard.Peek(arr, off); present {
					if m.cfg.DisableCache {
						target.sendValue(t4, p.id, spID, dst, v)
						return
					}
					target.sendPage(t4, arr, h, off, p.id, spID, dst)
					return
				}
				end := m.extend(&target.am, t4, timing.AMEnqueueTime)
				_ = end
				if err := target.shard.QueueRemote(arr, off, istructure.RemoteWaiter{PE: p.id, SP: spID, Slot: dst}); err != nil {
					m.fail(err)
				}
			})
		})
	})
}

// sendPage extracts the page containing off and ships it to reqPE, where it
// is installed in the software cache and the requested element is delivered
// to the waiting SP.
//
// The Routing Unit is occupied only for the message *setup* (the batched
// small-message estimate): on the iPSC/2's Direct-Connect hardware the
// transfer itself is DMA-driven, so Dunigan's long-message equation is
// charged as in-flight latency, not node occupancy.
func (p *pe) sendPage(t int64, arr int64, h *istructure.Header, off, reqPE int, spID int64, dstSlot int) {
	m := p.m
	pageIdx, pg, elems, err := p.shard.ExtractPage(arr, off)
	if err != nil {
		m.fail(err)
		return
	}
	sendEnd := m.extend(&p.am, t, timing.PageSendTime(elems))
	m.counts.PageMsgs++
	req := m.pes[reqPE]
	flight := timing.DuniganTime(elems * timing.ElemBytes)
	m.serve(&p.ru, sendEnd, timing.SmallMessageRUTime, func(t2 int64) {
		m.at(t2+flight+timing.NetworkTime, func(t3 int64) {
			m.serve(&req.am, t3, timing.PageReceiveTime(elems), func(t4 int64) {
				req.shard.InstallPage(arr, pageIdx, pg)
				i := off - pageIdx*h.PageElems
				if i < 0 || i >= len(pg.Vals) || !pg.Set[i] {
					m.fail(fmt.Errorf("sim: page %d of array %d shipped without requested element", pageIdx, arr))
					return
				}
				end := m.extend(&req.am, t4, timing.AMDeliverTime)
				m.deliver(end, spID, dstSlot, pg.Vals[i])
			})
		})
	})
}

// sendValue ships a single element value to a waiting SP on another PE as a
// small message (used by deferred-read releases and the no-cache ablation).
// Replies are synchronous — the reader is waiting — so they pay Dunigan's
// full short-message latency.
func (p *pe) sendValue(t int64, reqPE int, spID int64, dstSlot int, v isa.Value) {
	m := p.m
	req := m.pes[reqPE]
	m.counts.SmallMsgs++
	m.serve(&p.ru, t, timing.SmallMessageRUTime, func(t2 int64) {
		m.at(t2+timing.SyncMessageFlight+timing.NetworkTime, func(t3 int64) {
			m.serve(&req.mu, t3, timing.MatchTime, func(t4 int64) {
				m.counts.TokensMatched++
				m.deliver(t4, spID, dstSlot, v)
			})
		})
	})
}

// performWrite implements the I-structure write (§5.1 Array Manager):
// local writes release queued local readers and ship pages to queued remote
// readers; remote writes travel to the owner PE.
func (p *pe) performWrite(sp *spInst, in *isa.Instr, now int64) {
	m := p.m
	h, off, ok := p.resolveAccess(sp, in.A, in.Args)
	if !ok {
		return
	}
	val := sp.frame[in.B]
	spName := sp.tmpl.Name

	if m.cfg.ZeroOverhead {
		local, remote, err := p.shard.Write(h.ID, off, val)
		if err != nil {
			m.fail(fmt.Errorf("sim: SP %q: %w", spName, err))
			return
		}
		for _, w := range local {
			m.deliver(now, w.SP, w.Slot, val)
		}
		for _, rw := range remote {
			m.deliver(now, rw.SP, rw.Slot, val)
		}
		m.counts.LocalWrites++
		return
	}

	owner := h.OwnerOf(off)
	if owner == p.id {
		m.counts.LocalWrites++
		p.ownerWrite(now, h, off, val, spName)
		return
	}
	// Remote write: "the value is sent to the target PE, which writes it
	// into the appropriate array slot" (§5.1).
	m.counts.RemoteWrites++
	m.counts.SmallMsgs++
	target := m.pes[owner]
	m.serve(&p.ru, now, timing.SmallMessageRUTime, func(t int64) {
		m.at(t+timing.NetworkTime, func(t2 int64) {
			target.ownerWrite(t2, h, off, val, spName)
		})
	})
}

// ownerWrite performs the write on the owning PE's Array Manager and
// releases any deferred local readers and queued remote page requests.
func (p *pe) ownerWrite(now int64, h *istructure.Header, off int, val isa.Value, spName string) {
	m := p.m
	arr := h.ID
	m.serve(&p.am, now, timing.AMWriteTime, func(t int64) {
		local, remote, err := p.shard.Write(arr, off, val)
		if err != nil {
			m.fail(fmt.Errorf("sim: SP %q: %w", spName, err))
			return
		}
		if n := int64(len(local) + len(remote)); n > 0 {
			// "Array Write: memory_write_time + number_queued_reads *
			// message_time" — release each deferred reader.
			end := m.extend(&p.am, t, n*timing.AMPerQueuedRead)
			for _, w := range local {
				m.deliver(end, w.SP, w.Slot, val)
			}
			// Queued remote readers receive the value as a token (pages
			// are only shipped for reads that find the element present,
			// §5.1 Array Manager).
			for _, rw := range remote {
				p.sendValue(end, rw.PE, rw.SP, rw.Slot, val)
			}
		}
	})
}
