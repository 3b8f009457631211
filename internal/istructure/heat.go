package istructure

// The sequential-scan detector behind streaming prefetch: for each page of
// an array, the length of the run of consecutive pages, ending at that
// page, that were accessed in ascending order. A forward scan carries a
// growing run with it, which is the prefetch trigger. The cluster's heat
// layer (Config.Heat) is its one client and records its reads explicitly
// (Scan); no other access feeds it, so an array that is never scanned
// keeps no per-page state for it.

// maxRun caps the recorded run length (the detector only ever compares
// against small thresholds; the cap just keeps long scans from counting
// forever).
const maxRun = 1 << 20

// Scan records one access to a page and returns the run length now ending
// there: the preceding page's run plus one when that page has been
// accessed, else 1. The page must lie inside the array.
func (a *Array) Scan(page int) int32 {
	if a.runs == nil {
		a.runs = make([]int32, a.h.pages)
	}
	run := int32(1)
	if page > 0 {
		if p := a.runs[page-1]; p > 0 && p < maxRun {
			run = p + 1
		}
	}
	a.runs[page] = run
	return run
}

// PageLocal reports whether a read of a page costs nothing remote: the
// page is cache-resident, or it lies in this PE's owned segment.
func (a *Array) PageLocal(page int) bool {
	if page >= 0 && page < len(a.cache) && a.cache[page].slot != nil {
		return true
	}
	h := a.h
	plo := page * h.PageElems
	phi := min(plo+h.PageElems, h.elems)
	return plo < a.base+len(a.vals) && phi > a.base
}
