package istructure

import (
	"fmt"
	"math"

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

	// arrays holds one handle per installed array; last memoizes the most
	// recently resolved one, so a run of accesses to one array resolves it
	// without touching the map. The unified page-heat table (see heat.go)
	// lives in the handles: each carries a dense slice of per-page entries.
	arrays map[int64]*Array
	last   *Array

	// Now is the caller-maintained instruction stamp used for the heat
	// table's last-touch times (the worker sets it to its executed
	// instruction count, giving deterministic stamps per PE).
	Now int64

	// CacheCap bounds the number of resident cached remote pages; 0 means
	// unbounded (the pre-eviction behavior). Set it before any page is
	// installed. It may be raised or lowered mid-run (the adaptive cap
	// does); a lowered cap takes effect at the next page install.
	CacheCap int

	// Idempotent tolerates a second write of the *identical* value to an
	// already-written element as a no-op (counted in DupWrites) instead of
	// failing it as a single-assignment violation. Failure recovery re-
	// executes a dead PE's work, and single assignment guarantees a
	// deterministic program regenerates exactly the values it wrote the
	// first time — so absorbing the duplicates is sound, while a
	// *mismatched* rewrite still proves the program (or the recovery) is
	// broken and keeps failing loudly.
	Idempotent bool

	// OnEvict, when non-nil, observes every page eviction (the cluster's
	// trace recorder hooks it). Called from evictAt, the single point a
	// cached page leaves the shard, with the page's array ID and index.
	OnEvict func(arr int64, page int)

	// clock is the CLOCK ring over resident cached pages: hand sweeps it
	// clearing reference bits until it finds an unreferenced victim. The
	// reference bits themselves live in the heat table (referenced iff
	// heat > sweep). New pages enter unreferenced, so a page that is
	// never probed again after its install is the first to go.
	clock []*cacheSlot
	hand  int

	// evictGen / evictGenCount implement the refetch window over the
	// heat table: each eviction stamps its entry with the current
	// generation, and a re-install counts as a refetch if the stamp is
	// within the last two generations (evictedGen evictions each) —
	// the same window the old paired eviction maps gave. Rotating a
	// generation also resets heat entries that have aged out of the
	// window, at the cost of undercounting refetches whose reuse distance
	// exceeds two generations (a statistic, never correctness).
	evictGen      int64
	evictGenCount int

	// Stats.
	DeferredReads int64 // reads enqueued on absent local elements
	CacheHits     int64 // remote reads satisfied from the page cache
	CacheMisses   int64 // remote reads that sent a page request
	Evictions     int64 // cached pages evicted by the CLOCK bound
	Refetches     int64 // page installs that re-fetch a previously evicted page
	DupWrites     int64 // identical rewrites absorbed by Idempotent mode
}

// cacheSlot is one resident cached page — a frame of the CLOCK ring. Its
// reference state lives in the heat-table entry it points back to (an
// element of its array's stats slice).
type cacheSlot struct {
	a    *Array
	page int
	pg   *CachedPage
	st   *pageStat
}

// Array is one installed array on one shard — the handle an executor
// resolves once per access (Shard.Array) and then works through: the owned
// segment with presence bits and deferred-read queues, and the array's
// part of the page-heat table and page cache.
type Array struct {
	h    *Header
	s    *Shard
	base int // linear offset of first owned element
	vals []isa.Value
	set  []bool
	// waiting maps owned linear offset → local waiters (deferred reads).
	waiting map[int][]Waiter
	// remoteWaiting maps owned linear offset → remote PEs to send the page
	// to once the element is written.
	remoteWaiting map[int][]RemoteWaiter

	// stats is this array's slice of the heat table, indexed by page and
	// allocated on the array's first touch; a zero entry is a page the
	// shard has never seen.
	stats []pageStat
}

// CachedPage is a snapshot of a remote page: values plus presence bits as of
// the time the page was shipped. Single assignment means entries never go
// stale — absent entries may be filled by a later refetch, present entries
// are final (§4: "a cached page will never have to be sent back").
type CachedPage struct {
	Vals []isa.Value
	Set  []bool
}

// NewShard returns an empty shard for a PE.
func NewShard(pe int) *Shard {
	return &Shard{PE: pe, arrays: make(map[int64]*Array)}
}

// Install allocates this PE's segment of an array described by h. Every PE
// installs the same header (the distributing allocate broadcast of §4.1).
// In Idempotent mode a duplicate install is a no-op: recovery re-broadcasts
// every known header because any single broadcast may have died on the
// wire with its sender.
func (s *Shard) Install(h *Header) error {
	if _, dup := s.arrays[h.ID]; dup {
		if s.Idempotent {
			return nil
		}
		return fmt.Errorf("pe %d: array id %d already installed", s.PE, h.ID)
	}
	lo, hi := h.SegmentElems(s.PE)
	n := hi - lo
	s.arrays[h.ID] = &Array{
		h:             h,
		s:             s,
		base:          lo,
		vals:          make([]isa.Value, n),
		set:           make([]bool, n),
		waiting:       make(map[int][]Waiter),
		remoteWaiting: make(map[int][]RemoteWaiter),
	}
	return nil
}

// Array resolves an array ID to its handle, or nil when the array is not
// installed here. This is the one lookup an access pays; every further
// operation goes through the handle.
func (s *Shard) Array(id int64) *Array {
	if a := s.last; a != nil && a.h.ID == id {
		return a
	}
	a := s.arrays[id]
	if a != nil {
		s.last = a
	}
	return a
}

// Header returns the installed header for an array ID, or nil.
func (s *Shard) Header(id int64) *Header {
	if a := s.Array(id); a != nil {
		return a.h
	}
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
	// Owned-segment accesses feed the heat table too: an owned page a PE
	// keeps reading is exactly the locality a page-granular steal summary
	// should advertise.
	a.touchPage(a.h.PageOf(off)).owned = true
	if a.set[i] {
		return a.vals[i], ReadHit
	}
	a.waiting[off] = append(a.waiting[off], w)
	a.s.DeferredReads++
	return isa.Value{}, ReadDeferred
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
		if a.s.Idempotent && sameValue(a.vals[i], v) {
			// A replayed write landing on its own first execution's result:
			// the element is already present, so any waiters were released
			// by the original write and there is nothing left to do.
			a.s.DupWrites++
			return nil, nil, nil
		}
		return nil, nil, &SingleAssignmentError{Array: a.h.Name, Off: off}
	}
	a.vals[i] = v
	a.set[i] = true
	// The queues are empty for almost every write; skip the map probes then.
	if len(a.waiting) > 0 {
		local = a.waiting[off]
		delete(a.waiting, off)
	}
	if len(a.remoteWaiting) > 0 {
		remote = a.remoteWaiting[off]
		delete(a.remoteWaiting, off)
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

// sameValue reports bit-exact value equality (floats compared by their
// bits, so a NaN rewrite of the same NaN is still "identical").
func sameValue(a, b isa.Value) bool {
	return a.Kind == b.Kind && a.I == b.I &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
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
	a.remoteWaiting[off] = append(a.remoteWaiting[off], rw)
	s.DeferredReads++
	return nil
}

// ExtractPage snapshots the owned page containing off for shipment to a
// requester ("this PE extracts the entire page containing that element and
// returns it", §4). The snapshot covers the intersection of the page with
// this PE's segment.
func (a *Array) ExtractPage(off int) (pageIdx int, pg *CachedPage, elems int, err error) {
	h := a.h
	pageIdx = h.PageOf(off)
	plo := pageIdx * h.PageElems
	phi := min(plo+h.PageElems, h.elems)
	lo := max(plo, a.base)
	hi := min(phi, a.base+len(a.vals))
	if lo >= hi {
		return 0, nil, 0, fmt.Errorf("pe %d: page %d of array %q not owned", a.s.PE, pageIdx, h.Name)
	}
	n := phi - plo
	pg = &CachedPage{Vals: make([]isa.Value, n), Set: make([]bool, n)}
	copy(pg.Vals[lo-plo:], a.vals[lo-a.base:hi-a.base])
	copy(pg.Set[lo-plo:], a.set[lo-a.base:hi-a.base])
	return pageIdx, pg, n, nil
}

// ExtractPage is Array.ExtractPage by array ID.
func (s *Shard) ExtractPage(id int64, off int) (pageIdx int, pg *CachedPage, elems int, err error) {
	a := s.Array(id)
	if a == nil {
		return 0, nil, 0, fmt.Errorf("pe %d: extract page of unknown array %d", s.PE, id)
	}
	return a.ExtractPage(off)
}

// InstallPage stores a received remote page in the software cache,
// overwriting any older (necessarily subset) snapshot. With CacheCap set,
// installing a page beyond the cap first evicts a resident page chosen by
// the CLOCK sweep; re-installing a previously evicted page counts as a
// refetch. A page index outside the array is ignored.
func (a *Array) InstallPage(pageIdx int, pg *CachedPage) {
	e := a.stat(pageIdx)
	if e == nil {
		return
	}
	s := a.s
	if e.slot != nil {
		// A fuller snapshot of an already-resident page: refresh in place.
		// The touch counts as a reference — the page is demonstrably live.
		e.slot.pg = pg
		e.heat++
		e.touch = s.Now
		return
	}
	if e.evicted && e.gen >= s.evictGen-1 {
		s.Refetches++
	}
	slot := &cacheSlot{a: a, page: pageIdx, pg: pg, st: e}
	e.slot = slot
	// Enter unreferenced: any touches the demand miss itself recorded must
	// not count as a post-install reference (the old ring's ref=false).
	e.sweep = e.heat
	if s.CacheCap > 0 && len(s.clock) >= s.CacheCap {
		// A cap lowered mid-run shrinks the ring first, O(1) per page by
		// moving the last slot into the vacated frame.
		for len(s.clock) > s.CacheCap {
			i := s.victim()
			s.evictAt(i)
			last := len(s.clock) - 1
			s.clock[i] = s.clock[last]
			s.clock[last] = nil
			s.clock = s.clock[:last]
		}
		// Classic CLOCK: the new page replaces the victim frame in place
		// (O(1) — no ring splice), with the hand advancing past it.
		i := s.victim()
		s.evictAt(i)
		s.clock[i] = slot
		s.hand = i + 1
	} else {
		s.clock = append(s.clock, slot)
	}
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
// second chance. The reference bit is the heat table's heat-since-sweep
// delta; clearing it records the current heat as seen. Terminates because
// each pass clears bits, so the second sweep must stop. Only called with a
// non-empty ring.
func (s *Shard) victim() int {
	for {
		if s.hand >= len(s.clock) {
			s.hand = 0
		}
		if e := s.clock[s.hand].st; e.heat > e.sweep {
			e.sweep = e.heat
			s.hand++
			continue
		}
		return s.hand
	}
}

// evictedGen bounds one generation of the refetch-detection window.
const evictedGen = 8192

// evictAt evicts the resident page in frame i: its heat entry loses its
// slot and gains an eviction-generation stamp for refetch detection. The
// caller reuses or removes the frame itself. Rotating into a new
// generation resets the heat entries that aged out of the refetch window
// (non-resident, non-owned), exactly as if they had never been touched.
func (s *Shard) evictAt(i int) {
	slot := s.clock[i]
	e := slot.st
	e.slot = nil
	e.evicted = true
	e.gen = s.evictGen
	s.evictGenCount++
	if s.evictGenCount >= evictedGen {
		s.evictGen++
		s.evictGenCount = 0
		for _, a := range s.arrays {
			for p := range a.stats {
				if st := &a.stats[p]; st.slot == nil && !st.owned && st.gen < s.evictGen-1 {
					*st = pageStat{}
				}
			}
		}
	}
	s.Evictions++
	if s.OnEvict != nil {
		s.OnEvict(slot.a.h.ID, slot.page)
	}
}

// CachedPages returns the number of resident cached remote pages — the
// quantity CacheCap bounds.
func (s *Shard) CachedPages() int { return len(s.clock) }

// CacheLookup probes the software cache for the element at off, which must
// lie inside the array. hitPage reports the page being cached at all;
// hitElem that the element was present in it. Every probe — hit or miss —
// touches the heat table (feeding the scan detector); a probe that finds
// the page resident thereby marks it referenced for the CLOCK sweep.
func (a *Array) CacheLookup(off int) (v isa.Value, hitPage, hitElem bool) {
	page := a.h.PageOf(off)
	e := a.touchPage(page)
	if e.slot == nil {
		return isa.Value{}, false, false
	}
	pg := e.slot.pg
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
	for _, a := range s.arrays {
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
	a := s.arrays[id]
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
