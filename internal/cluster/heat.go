package cluster

import (
	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
)

// This file is the worker-side half of the unified page-heat machinery.
// The shard's heat table (istructure/heat.go) records what happened to
// every page; this layer turns the record into three decisions:
//
//   - page-granular steal locality (whenever Config.Steal is on): steal
//     requests advertise the thief's hot pages, and the victim ranks
//     candidates by the rows their operand frames would touch there;
//   - streaming prefetch (Config.Heat): a detected sequential scan asks
//     the owner for the next page before the miss, via an SP-0 KReadReq
//     answered on the ordinary KPage path — recovery, replay, and the
//     four-counter termination sums need no new cases;
//   - the adaptive cache cap (Config.Heat): CachePages self-tunes between
//     a floor and a ceiling from per-probe-round refetch pressure.

// heatKey identifies one (array, page) on the worker side.
type heatKey struct {
	arr  int64
	page int
}

// heatState is the worker's page-heat bookkeeping.
type heatState struct {
	// on mirrors Config.Heat for this worker.
	on bool

	// inflight dedups prefetch requests: one per page until its KPage
	// lands (or a demand fetch of the same page overtakes it).
	inflight map[heatKey]struct{}

	// arrived marks pages installed by a prefetch that have not yet
	// served a demand read; the first cache hit on such a page counts as
	// a PrefetchHit and clears the mark.
	arrived map[heatKey]struct{}

	// gov is the adaptive-cap governor; last* are the counter values at
	// the previous probe round, for delta extraction.
	gov           capGovernor
	lastRefetches int64
	lastEvicts    int64

	prefetches   int64 // prefetch requests issued
	prefetchHits int64 // prefetched pages that later served a demand read
}

// newHeatState arms the worker-side heat machinery.
func newHeatState(cachePages int) heatState {
	return heatState{
		on:       true,
		inflight: make(map[heatKey]struct{}),
		arrived:  make(map[heatKey]struct{}),
		gov:      newCapGovernor(cachePages),
	}
}

// prefetchRun is the sequential-run length that triggers a streaming
// prefetch: two consecutive pages touched in order is taken as a scan.
const prefetchRun = 2

// maybePrefetch issues a streaming prefetch for the page after the one
// holding off when the heat table shows a sequential scan ending there.
// Called on the remote-read path for both hits and misses: the scan's
// own misses start the chain, and the hits keep it one page ahead.
//
// The request is an SP-0 KReadReq — SP 0 is never a live instance ID, so
// the owner ships the page without queuing a waiter and the arrival
// installs without a delivery. Already-local, already-inflight,
// self-owned and out-of-range pages are skipped.
func (w *worker) maybePrefetch(a *istructure.Array, off int) {
	if !w.heat.on {
		return
	}
	h := a.Header()
	page := h.PageOf(off)
	if a.ScanRun(page) < prefetchRun {
		return
	}
	page++
	if page >= h.Pages() || a.PageLocal(page) {
		return
	}
	k := heatKey{h.ID, page}
	if _, dup := w.heat.inflight[k]; dup {
		return
	}
	first := page * h.PageElems
	owner := h.OwnerOf(first)
	if owner == w.pe {
		return
	}
	w.heat.inflight[k] = struct{}{}
	w.heat.prefetches++
	w.rec(trace.EvPrefetch, h.ID, int64(page))
	w.send(owner, &Msg{
		Kind:  KReadReq,
		Arr:   h.ID,
		Off:   int32(first),
		ReqPE: int32(w.pe),
	})
}

// notePrefetchHit credits a demand cache hit to the prefetch that staged
// the page, once per prefetched page.
func (w *worker) notePrefetchHit(arr int64, page int) {
	if len(w.heat.arrived) == 0 {
		return // heat off, or no prefetched page is waiting for its credit
	}
	k := heatKey{arr, page}
	if _, ok := w.heat.arrived[k]; ok {
		delete(w.heat.arrived, k)
		w.heat.prefetchHits++
	}
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
func (w *worker) pageScore(sp *spInst, pages map[heatKey]struct{}) int {
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
			if _, ok := pages[heatKey{v.I, h.PageOf(off)}]; ok {
				n++
			}
		}
	}
	return n
}

// capGovernor self-tunes the shard's CachePages bound between a floor
// (the configured cap) and a ceiling (capCeilFactor times it) from
// observed refetch pressure. Refetches mean the bound is actively
// throwing away pages the run still needs — grow. Quiet rounds with no
// evictions at all mean the working set fits with room to spare — after
// capQuietRounds of them, shrink back toward the floor. Rounds that
// evict without refetching hold position: the bound is working at no
// cost, and reacting to them is what would oscillate.
type capGovernor struct {
	floor, ceil int
	cap         int
	quiet       int
}

const (
	capCeilFactor  = 8
	capQuietRounds = 3
)

// newCapGovernor builds a governor for a configured cap; a zero cap
// (unbounded cache) disables it.
func newCapGovernor(configured int) capGovernor {
	if configured <= 0 {
		return capGovernor{}
	}
	return capGovernor{floor: configured, ceil: configured * capCeilFactor, cap: configured}
}

// enabled reports whether the governor is active.
func (g *capGovernor) enabled() bool { return g.floor > 0 }

// tick observes one probe round's refetch and eviction deltas and moves
// the cap: growth is immediate and multiplicative (pressure is paid in
// remote fetches every round it persists), shrinking needs
// capQuietRounds eviction-free rounds (hysteresis). Returns the cap and
// whether it changed.
func (g *capGovernor) tick(refetchDelta, evictDelta int64) (int, bool) {
	if !g.enabled() {
		return 0, false
	}
	old := g.cap
	switch {
	case refetchDelta > 0:
		g.quiet = 0
		g.cap = min(g.ceil, g.cap+max(1, g.cap/2))
	case evictDelta == 0:
		g.quiet++
		if g.quiet >= capQuietRounds && g.cap > g.floor {
			g.cap = max(g.floor, g.cap-max(1, g.cap/4))
			g.quiet = 0
		}
	default:
		g.quiet = 0
	}
	return g.cap, g.cap != old
}
