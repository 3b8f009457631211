package istructure

import "sort"

// The page-heat table is the shard's single source of truth about page
// residency and use. Every access path feeds it — cache probes
// (CacheLookup), page arrivals (InstallPage), evictions (evictAt), and
// owned-segment reads (ReadLocal) — and every consumer reads it back out:
// the CLOCK sweep's reference bits are heat deltas, refetch detection is
// the eviction-generation stamp, the steal-locality summary (HotPages)
// ranks by heat, and the streaming-prefetch scan detector is the
// per-page sequential-run length. Before this table the same facts lived
// in four places (per-slot ref bits, two generational eviction maps, an
// on-demand cache walk, and nothing at all for scans); now there is one
// record per (array, page) and four views of it.
//
// The table is dense: each installed array carries a slice of entries
// indexed by page number (Array.stats), allocated on the array's first
// touch, so a touch is two slice indexes whether or not anything consumes
// the heat. A zero entry means "never seen".

// pageStat is one (array, page) entry of the heat table.
type pageStat struct {
	// slot is non-nil while the page is resident in the remote-page
	// cache; it is the same frame the CLOCK ring holds.
	slot *cacheSlot

	// heat counts every touch of the page. The CLOCK reference bit is
	// derived, not stored: the page is "referenced" iff heat > sweep,
	// and clearing the bit is sweep = heat. A freshly installed page
	// starts with sweep == heat (unreferenced), exactly like the old
	// ring's ref=false entry.
	heat  int64
	sweep int64

	// evicted/gen implement the refetch window: a page evicted in
	// generation g counts as a refetch if it is re-installed while the
	// shard is still in generation g or g+1 — the same two-generation
	// window (evictedGen evictions each) the old paired maps gave.
	gen     int64
	evicted bool

	// owned marks a page that intersects this PE's owned segment (reads
	// of it never leave the shard). Owned pages are never cached, so
	// owned and slot are mutually exclusive in practice.
	owned bool

	// run is the sequential-run length ending at this page: touching
	// page p sets run to heat[p-1].run+1 when the preceding page has
	// been touched, else 1. A forward scan therefore carries a growing
	// run with it, which is the streaming-prefetch trigger.
	run int32
}

// maxRun caps the recorded run length (the detector only ever compares
// against small thresholds; the cap just keeps long scans from counting
// forever).
const maxRun = 1 << 20

// table returns the array's heat entries, allocating them on first use.
func (a *Array) table() []pageStat {
	if a.stats == nil {
		a.stats = make([]pageStat, a.h.pages)
	}
	return a.stats
}

// stat returns the heat entry for a page without touching it; nil for a
// page outside the array.
func (a *Array) stat(page int) *pageStat {
	if t := a.table(); page >= 0 && page < len(t) {
		return &t[page]
	}
	return nil
}

// touchPage records one access to a page of the array: bumps heat and
// updates the sequential-run length. It returns the entry so callers can
// read residency or run state without a second lookup. The page must lie
// inside the array.
func (a *Array) touchPage(page int) *pageStat {
	t := a.table()
	e := &t[page]
	e.heat++
	run := int32(1)
	if page > 0 {
		if p := &t[page-1]; p.run > 0 && p.run < maxRun {
			run = p.run + 1
		}
	}
	e.run = run
	return e
}

// ScanRun reports the sequential-run length currently recorded at a page:
// how many consecutive pages, ending here, have been touched in ascending
// order. Zero when the page has never been touched.
func (a *Array) ScanRun(page int) int32 {
	if page < 0 || page >= len(a.stats) {
		return 0
	}
	return a.stats[page].run
}

// PageLocal reports whether a read of a page costs nothing remote: the
// page is cache-resident, or it lies in this PE's owned segment.
func (a *Array) PageLocal(page int) bool {
	if page >= 0 && page < len(a.stats) && a.stats[page].slot != nil {
		return true
	}
	h := a.h
	plo := page * h.PageElems
	phi := min(plo+h.PageElems, h.elems)
	return plo < a.base+len(a.vals) && phi > a.base
}

// HotPage is one entry of a page-granular locality summary: the page and
// its cumulative heat.
type HotPage struct {
	Arr  int64
	Page int
	Heat int64
}

// HotPages summarizes this shard's locality for a steal request: the
// pages whose data is local here — cache-resident remote pages and touched
// owned pages — hottest first, ties broken on (array ID, page), at most
// limit entries. Each PE's summary names the *rows* it holds, even on one
// shared array. Kept sorted while it is built, it costs at most one
// allocation however many pages are local.
func (s *Shard) HotPages(limit int) []HotPage {
	var out []HotPage
	for a := range s.installed {
		for p := range a.stats {
			e := &a.stats[p]
			if e.slot == nil && !e.owned {
				continue
			}
			hp := HotPage{Arr: a.h.ID, Page: p, Heat: e.heat}
			i := sort.Search(len(out), func(i int) bool { return hp.hotter(out[i]) })
			if i >= limit {
				continue
			}
			if out == nil {
				out = make([]HotPage, 0, limit)
			}
			if len(out) < limit {
				out = append(out, HotPage{})
			}
			copy(out[i+1:], out[i:len(out)-1])
			out[i] = hp
		}
	}
	return out
}

// hotter orders the summary: more heat first, then (array ID, page).
func (p HotPage) hotter(q HotPage) bool {
	if p.Heat != q.Heat {
		return p.Heat > q.Heat
	}
	if p.Arr != q.Arr {
		return p.Arr < q.Arr
	}
	return p.Page < q.Page
}
