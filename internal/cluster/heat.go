package cluster

import (
	"repro/internal/cluster/trace"
	"repro/internal/istructure"
)

// The heat layer (Config.Heat) makes two decisions from what the worker
// observes of its pages:
//
//   - streaming prefetch: the shard's sequential-scan detector
//     (istructure/heat.go), which this layer alone feeds, one record per
//     read, spots a forward scan, and the worker asks the owner for the
//     next page before the miss, via an SP-0 KReadReq answered on the
//     ordinary KPage path — the four-counter termination sums need no
//     new cases;
//   - the adaptive cache cap: CachePages self-tunes between a floor and a
//     ceiling from per-probe-round refetch pressure.
//
// The core calls in on every owned read (Array.Scan), every remote read
// (heatRead) and every probe (capTick), and marks each prefetched page that
// installs as arrived. A prefetch enters the core's in-flight page table
// (istore.go) like a demand request, so neither kind asks for a page
// already requested. With the layer off, no read records anything.

// heatState is a worker's half of the heat layer, nil when Config.Heat is
// off.
type heatState struct {
	// arrived marks pages installed by a prefetch that have not yet
	// served a demand read; the first cache hit on such a page counts as
	// a PrefetchHit and clears the mark.
	arrived map[pageKey]struct{}

	// gov is the adaptive-cap governor; last* are the counter values at
	// the previous probe round, for delta extraction.
	gov           capGovernor
	lastRefetches int64
	lastEvicts    int64

	prefetches   int64 // prefetch requests issued
	prefetchHits int64 // prefetched pages that later served a demand read
}

// prefetchRun is the sequential-run length that triggers a streaming
// prefetch: two consecutive pages read in order is taken as a scan.
const prefetchRun = 2

// heatRead observes one remote read of element off: a cache hit credits
// the prefetch that staged its page, and hit or miss, the read is recorded
// for the scan detector, and a sequential scan ending at the page
// prefetches the next one — the scan's own misses start the chain, and the
// hits keep it one page ahead.
//
// The request is an SP-0 KReadReq — SP 0 is never a live instance ID, so
// the owner ships the page without queuing a waiter and the arrival
// installs without a delivery. Already-local, already-requested,
// self-owned and out-of-range pages are skipped.
func (w *worker) heatRead(a *istructure.Array, off int, hit bool) {
	ht, h := w.heat, a.Header()
	page := h.PageOf(off)
	if hit && len(ht.arrived) > 0 {
		k := pageKey{h.ID, page}
		if _, ok := ht.arrived[k]; ok {
			delete(ht.arrived, k)
			ht.prefetchHits++
		}
	}
	if a.Scan(page) < prefetchRun {
		return
	}
	page++
	if page >= h.Pages() || a.PageLocal(page) {
		return
	}
	k := pageKey{h.ID, page}
	if _, dup := w.inflight[k]; dup {
		return
	}
	first := page * h.PageElems
	owner := h.OwnerOf(first)
	if owner == w.pe {
		return
	}
	w.inflight[k] = pageReq{}
	ht.prefetches++
	w.rec(trace.EvPrefetch, h.ID, int64(page))
	w.send(owner, newMsg(Msg{Kind: KReadReq, Arr: h.ID, Off: int32(first), ReqPE: int32(w.pe)}))
}

// capTick moves the adaptive cache cap on the probe cadence: the round's
// refetch and eviction deltas are the pressure signal, and a cap move
// takes effect immediately (growth) or at the next install (shrink, via
// InstallPage's shrink loop).
func (w *worker) capTick() {
	ht := w.heat
	if !ht.gov.enabled() {
		return
	}
	rd := w.shard.Refetches - ht.lastRefetches
	ed := w.shard.Evictions - ht.lastEvicts
	ht.lastRefetches, ht.lastEvicts = w.shard.Refetches, w.shard.Evictions
	if cap, changed := ht.gov.tick(rd, ed); changed {
		w.shard.CacheCap = cap
		w.rec(trace.EvCacheResize, int64(cap), rd)
	}
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
