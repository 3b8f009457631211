package istructure

import (
	"fmt"
	"slices"

	"repro/internal/isa"
)

// Waiter identifies a deferred read: when the element is finally written,
// the value must be delivered to slot Slot of SP instance SP on PE PE.
type Waiter struct {
	PE   int
	SP   int64
	Slot int
}

// RemoteWaiter records a PE that asked for a page element that was absent;
// on write, the owner sends the (now fuller) page to that PE (§5.1 Array
// Manager: "if it is absent, the request is queued in the target PE").
type RemoteWaiter struct {
	PE   int
	SP   int64
	Slot int
}

// Shard is one PE's slice of I-structure memory: for each array, the
// elements of the pages in this PE's segment, with presence bits and
// deferred-read queues, plus this PE's software page cache of remote data.
//
// The cache can be memory-bounded: with CacheCap > 0 at most that many
// remote pages stay resident, evicted CLOCK/second-chance style. Only
// cached (remote) pages are ever evicted — owned segments are the array's
// home storage and must persist — and single assignment means an eviction
// can cost a refetch of the same immutable data but never correctness.
type Shard struct {
	PE int

	// slots, stride and n are the array table (table.go): one handle per
	// installed array, resolved by ID (Shard.Array).
	slots  []idSlot
	stride uint64
	n      int

	// CacheCap bounds the number of resident cached remote pages; 0 means
	// unbounded (the pre-eviction behavior). Set it before any page is
	// installed. It may be raised or lowered mid-run (the adaptive cap
	// does); a lowered cap takes effect at the next page install.
	CacheCap int

	// OnEvict, when non-nil, observes every page eviction (the cluster's
	// trace recorder hooks it). Called from evictAt, the single point a
	// cached page leaves the shard, with the page's array ID and index.
	OnEvict func(arr int64, page int)

	// clock is the CLOCK ring over resident cached pages: hand sweeps it
	// clearing reference bits until it finds an unreferenced victim. New
	// pages enter unreferenced, so a page that is never probed again
	// after its install is the first to go.
	clock []*cacheSlot
	hand  int

	// Stats.
	DeferredReads int64 // reads enqueued on absent local elements
	CacheHits     int64 // remote reads satisfied from the page cache
	CacheMisses   int64 // remote reads that sent a page request
	Evictions     int64 // cached pages evicted by the CLOCK bound
	Refetches     int64 // page installs that re-fetch a page evicted in this generation or the last
}

// evictedGen is the length of one generation of the refetch window, in
// evictions: the shard's evictions are numbered from 1, and eviction k
// falls in generation (k-1)/evictedGen. A page evicted in generation g
// and installed again while the shard is still in generation g or g+1 is
// a refetch; a longer reuse distance goes uncounted (a statistic, never
// correctness).
const evictedGen = 8192

// cacheSlot is one resident cached page — a frame of the CLOCK ring —
// and its reference bit: set by every probe that finds the page and by a
// refresh, cleared by the sweep.
type cacheSlot struct {
	a    *Array
	page int
	pg   CachedPage
	ref  bool
}

// cacheEntry is one page's entry in its array's cache index: the frame
// holding the page while it is resident, and the number of the eviction
// that last removed it (0: never evicted).
type cacheEntry struct {
	slot    *cacheSlot
	evicted int64
}

// Array is one installed array on one shard — the handle an executor
// resolves once per access (Shard.Array) and then works through: the owned
// segment with presence bits and deferred-read queues, and the array's
// part of the page cache.
type Array struct {
	h    *Header
	s    *Shard
	base int // linear offset of first owned element
	vals []isa.Value
	set  []bool
	// queued has one bit per owned element, set while the element has a
	// deferred reader, local or remote, so that a write probes the waiter
	// maps only for such an element. It and both maps are allocated with
	// the array's first deferred reader.
	queued []uint64
	// waiting maps owned linear offset → local waiters (deferred reads).
	waiting map[int][]Waiter
	// remoteWaiting maps owned linear offset → remote PEs to send the page
	// to once the element is written.
	remoteWaiting map[int][]RemoteWaiter

	// cache indexes the array's pages in the page cache. It is allocated
	// when the array's first page enters the cache; until then every
	// probe misses without a lookup.
	cache []cacheEntry
	// runs holds the scan detector's run length per page (heat.go),
	// allocated at the array's first Scan.
	runs []int32
}

// CachedPage is a snapshot of a remote page: values plus presence bits as of
// the time the page was shipped. Single assignment means entries never go
// stale — absent entries may be filled by a later refetch, present entries
// are final (§4: "a cached page will never have to be sent back").
//
// A full page's slices are views of the owner's segment (ExtractPage), so a
// CachedPage is read-only: no holder may write Vals or Set.
type CachedPage struct {
	Vals []isa.Value
	Set  []bool
}

// NewShard returns an empty shard for a PE.
func NewShard(pe int) *Shard {
	return &Shard{PE: pe}
}

// Install allocates this PE's segment of an array described by h. Every PE
// installs the same header (the distributing allocate broadcast of §4.1).
func (s *Shard) Install(h *Header) error {
	if s.Array(h.ID) != nil {
		return fmt.Errorf("pe %d: array id %d already installed", s.PE, h.ID)
	}
	lo, hi := h.SegmentElems(s.PE)
	n := hi - lo
	a := &Array{h: h, s: s, base: lo, vals: make([]isa.Value, n), set: make([]bool, n)}
	s.insert(a)
	return nil
}

// Header returns the array's header.
func (a *Array) Header() *Header { return a.h }

// Owns reports whether linear offset off is in this PE's segment.
func (a *Array) Owns(off int) bool {
	return off >= a.base && off < a.base+len(a.vals)
}

// ReadResult describes the outcome of a local read attempt.
type ReadResult uint8

// Read outcomes.
const (
	ReadHit      ReadResult = iota + 1 // value present, returned
	ReadDeferred                       // element absent; waiter enqueued
	ReadRemote                         // element not owned by this PE
)

// ReadLocal attempts to read an owned element; if absent, the waiter is
// queued (I-structure deferred read). Returns ReadRemote when the offset is
// not in this PE's segment.
func (a *Array) ReadLocal(off int, w Waiter) (isa.Value, ReadResult) {
	i := off - a.base
	if i < 0 || i >= len(a.vals) {
		return isa.Value{}, ReadRemote
	}
	if a.set[i] {
		return a.vals[i], ReadHit
	}
	a.markQueued(i)
	a.waiting[off] = append(a.waiting[off], w)
	a.s.DeferredReads++
	return isa.Value{}, ReadDeferred
}

// markQueued records that owned element i (an index into the segment) has
// a deferred reader, allocating the bit set and the waiter maps with the
// array's first.
func (a *Array) markQueued(i int) {
	if a.queued == nil {
		a.queued = make([]uint64, (len(a.vals)+63)/64)
		a.waiting = make(map[int][]Waiter)
		a.remoteWaiting = make(map[int][]RemoteWaiter)
	}
	a.queued[uint(i)/64] |= 1 << (uint(i) % 64)
}

// ReadLocal is Array.ReadLocal by array ID.
func (s *Shard) ReadLocal(id int64, off int, w Waiter) (isa.Value, ReadResult, error) {
	a := s.Array(id)
	if a == nil {
		return isa.Value{}, 0, fmt.Errorf("pe %d: read of unknown array %d", s.PE, id)
	}
	v, res := a.ReadLocal(off, w)
	return v, res, nil
}

// Peek returns the element value if owned and present (no side effects).
func (a *Array) Peek(off int) (isa.Value, bool) {
	i := off - a.base
	if i < 0 || i >= len(a.vals) || !a.set[i] {
		return isa.Value{}, false
	}
	return a.vals[i], true
}

// Segment returns this PE's owned segment: its first linear offset, and the
// segment's values and presence bits themselves, not copies. The slices are
// read-only; an unwritten element reads as the zero Value.
func (a *Array) Segment() (base int, vals []isa.Value, set []bool) {
	return a.base, a.vals, a.set
}

// Peek is Array.Peek by array ID.
func (s *Shard) Peek(id int64, off int) (isa.Value, bool) {
	a := s.Array(id)
	if a == nil {
		return isa.Value{}, false
	}
	return a.Peek(off)
}

// SingleAssignmentError reports a second write to an I-structure element
// ("attempts to rewrite a value [are reported] as a single-assignment
// violation", §2).
type SingleAssignmentError struct {
	Array string
	Off   int
}

func (e *SingleAssignmentError) Error() string {
	return fmt.Sprintf("single-assignment violation: array %q element offset %d written twice", e.Array, e.Off)
}

// Write stores an owned element and returns the local waiters and remote
// page-waiters to release. A second write to the same element is a
// single-assignment violation.
func (a *Array) Write(off int, v isa.Value) (local []Waiter, remote []RemoteWaiter, err error) {
	i := off - a.base
	if i < 0 || i >= len(a.vals) {
		return nil, nil, fmt.Errorf("pe %d: write to non-owned offset %d of array %q", a.s.PE, off, a.h.Name)
	}
	if a.set[i] {
		return nil, nil, &SingleAssignmentError{Array: a.h.Name, Off: off}
	}
	a.vals[i] = v
	a.set[i] = true
	// Almost no written element has a reader queued; only one that does
	// costs the map probes.
	if a.queued != nil {
		if w, bit := &a.queued[uint(i)/64], uint64(1)<<(uint(i)%64); *w&bit != 0 {
			*w &^= bit
			local, remote = a.waiting[off], a.remoteWaiting[off]
			delete(a.waiting, off)
			delete(a.remoteWaiting, off)
		}
	}
	return local, remote, nil
}

// Write is Array.Write by array ID.
func (s *Shard) Write(id int64, off int, v isa.Value) (local []Waiter, remote []RemoteWaiter, err error) {
	a := s.Array(id)
	if a == nil {
		return nil, nil, fmt.Errorf("pe %d: write to unknown array %d", s.PE, id)
	}
	return a.Write(off, v)
}

// QueueRemote records a remote PE waiting for an absent owned element
// (a deferred read whose reader lives on another PE, §5.1).
func (s *Shard) QueueRemote(id int64, off int, rw RemoteWaiter) error {
	a := s.Array(id)
	if a == nil {
		return fmt.Errorf("pe %d: remote queue on unknown array %d", s.PE, id)
	}
	if !a.Owns(off) {
		return fmt.Errorf("pe %d: remote queue on non-owned offset %d", s.PE, off)
	}
	a.markQueued(off - a.base)
	a.remoteWaiting[off] = append(a.remoteWaiting[off], rw)
	s.DeferredReads++
	return nil
}

// ExtractPage snapshots the owned page containing off for shipment to a
// requester ("this PE extracts the entire page containing that element and
// returns it", §4). Segments are whole pages, so an owned page lies inside
// this PE's segment.
//
// A full page is final (single assignment), and is shipped as a read-only
// view of the segment rather than a copy: "a cached page will never have to
// be sent back" (§4). Its capacity is clipped to the page, so no append can
// reach a neighbouring page. A partial page is copied, because the owner
// keeps writing its absent elements.
func (a *Array) ExtractPage(off int) (pageIdx int, pg CachedPage, elems int, err error) {
	h := a.h
	if !a.Owns(off) {
		return 0, CachedPage{}, 0, fmt.Errorf("pe %d: offset %d of array %q not owned", a.s.PE, off, h.Name)
	}
	pageIdx = h.PageOf(off)
	lo := pageIdx*h.PageElems - a.base
	hi := min(lo+h.PageElems, len(a.vals))
	vals, set := a.vals[lo:hi:hi], a.set[lo:hi:hi]
	if slices.Contains(set, false) {
		vals, set = slices.Clone(vals), slices.Clone(set)
	}
	return pageIdx, CachedPage{Vals: vals, Set: set}, hi - lo, nil
}

// ExtractPage is Array.ExtractPage by array ID.
func (s *Shard) ExtractPage(id int64, off int) (pageIdx int, pg CachedPage, elems int, err error) {
	a := s.Array(id)
	if a == nil {
		return 0, CachedPage{}, 0, fmt.Errorf("pe %d: extract page of unknown array %d", s.PE, id)
	}
	return a.ExtractPage(off)
}

// InstallPage stores a received remote page in the software cache,
// overwriting any older (necessarily subset) snapshot; the cache copies the
// header *pg and keeps its slices. With CacheCap set, installing a page
// beyond the cap first evicts a resident page chosen by the CLOCK sweep;
// re-installing a recently evicted page counts as a refetch. A page index
// outside the array is ignored.
func (a *Array) InstallPage(pageIdx int, pg *CachedPage) {
	if pageIdx < 0 || pageIdx >= a.h.pages {
		return
	}
	if a.cache == nil {
		a.cache = make([]cacheEntry, a.h.pages)
	}
	s, e := a.s, &a.cache[pageIdx]
	if e.slot != nil {
		// A fuller snapshot of an already-resident page: refresh in place.
		// The install counts as a reference — the page is demonstrably live.
		e.slot.pg, e.slot.ref = *pg, true
		return
	}
	// Evicted in generation g, installed again in g or g+1 (evictedGen).
	if e.evicted != 0 && (e.evicted-1)/evictedGen+1 >= s.Evictions/evictedGen {
		s.Refetches++
	}
	if s.CacheCap == 0 || len(s.clock) < s.CacheCap {
		e.slot = new(cacheSlot)
		s.clock = append(s.clock, e.slot)
	} else {
		// A cap lowered mid-run shrinks the ring first, O(1) per page by
		// moving the last frame into the vacated one.
		for len(s.clock) > s.CacheCap {
			i := s.victim()
			s.evictAt(i)
			last := len(s.clock) - 1
			s.clock[i] = s.clock[last]
			s.clock[last] = nil
			s.clock = s.clock[:last]
		}
		// Classic CLOCK: the new page takes over the victim's frame and
		// slot (O(1), no ring splice, no allocation), and the hand
		// advances past it.
		i := s.victim()
		s.evictAt(i)
		e.slot = s.clock[i]
		s.hand = i + 1
	}
	// The page enters unreferenced.
	*e.slot = cacheSlot{a: a, page: pageIdx, pg: *pg}
}

// InstallPage is Array.InstallPage by array ID; a page of an array that is
// not installed is dropped.
func (s *Shard) InstallPage(id int64, pageIdx int, pg *CachedPage) {
	if a := s.Array(id); a != nil {
		a.InstallPage(pageIdx, pg)
	}
}

// victim runs the CLOCK hand until it finds an unreferenced resident page
// and returns its frame index: referenced pages get their bit cleared and a
// second chance. Terminates because each pass clears bits, so the second
// sweep must stop. Only called with a non-empty ring.
func (s *Shard) victim() int {
	for {
		if s.hand >= len(s.clock) {
			s.hand = 0
		}
		if slot := s.clock[s.hand]; slot.ref {
			slot.ref = false
			s.hand++
			continue
		}
		return s.hand
	}
}

// evictAt evicts the resident page in frame i: its cache entry loses its
// slot and records the eviction's number for refetch detection. The
// caller reuses or removes the frame itself.
func (s *Shard) evictAt(i int) {
	slot := s.clock[i]
	s.Evictions++
	slot.a.cache[slot.page] = cacheEntry{evicted: s.Evictions}
	if s.OnEvict != nil {
		s.OnEvict(slot.a.h.ID, slot.page)
	}
}

// CachedPages returns the number of resident cached remote pages — the
// quantity CacheCap bounds.
func (s *Shard) CachedPages() int { return len(s.clock) }

// CacheLookup probes the software cache for the element at off, which must
// lie inside the array. hitPage reports the page being cached at all;
// hitElem that the element was present in it. A probe that finds the page
// resident marks it referenced for the CLOCK sweep.
func (a *Array) CacheLookup(off int) (v isa.Value, hitPage, hitElem bool) {
	if a.cache == nil {
		return isa.Value{}, false, false
	}
	page := a.h.PageOf(off)
	slot := a.cache[page].slot
	if slot == nil {
		return isa.Value{}, false, false
	}
	slot.ref = true
	pg := &slot.pg
	i := off - page*a.h.PageElems
	if i < 0 || i >= len(pg.Vals) || !pg.Set[i] {
		return isa.Value{}, true, false
	}
	return pg.Vals[i], true, true
}

// CacheLookup is Array.CacheLookup by array ID (h is the array's header);
// an unknown array or an offset outside it misses.
func (s *Shard) CacheLookup(id int64, h *Header, off int) (v isa.Value, hitPage, hitElem bool) {
	a := s.Array(id)
	if a == nil || off < 0 || off >= h.elems {
		return isa.Value{}, false, false
	}
	return a.CacheLookup(off)
}

// PendingReads returns the number of deferred local reads still queued
// across all arrays — used for deadlock diagnostics.
func (s *Shard) PendingReads() int {
	n := 0
	for a := range s.installed {
		for _, ws := range a.waiting {
			n += len(ws)
		}
		for _, ws := range a.remoteWaiting {
			n += len(ws)
		}
	}
	return n
}

// Filled returns how many owned elements of array id have been written.
func (s *Shard) Filled(id int64) int {
	a := s.Array(id)
	if a == nil {
		return 0
	}
	n := 0
	for _, b := range a.set {
		if b {
			n++
		}
	}
	return n
}
