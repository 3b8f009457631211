package istructure

// The page-heat table is the shard's single source of truth about page
// residency and use. Every access path feeds it — cache probes
// (CacheLookup), page arrivals (InstallPage), evictions (evictAt), and
// owned-segment reads (ReadLocal) — and every consumer reads it back out:
// the CLOCK sweep's reference bits are heat deltas, refetch detection is
// the eviction-generation stamp, and the streaming-prefetch scan detector
// is the per-page sequential-run length: one record per (array, page),
// three views of it.
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
