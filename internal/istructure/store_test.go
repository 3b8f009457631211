package istructure

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func newTestShards(t *testing.T, dims []int, pes int) ([]*Shard, *Header) {
	t.Helper()
	h, err := NewHeader(1, "A", dims, 8, pes, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Shard, pes)
	for pe := 0; pe < pes; pe++ {
		shards[pe] = NewShard(pe)
		if err := shards[pe].Install(h); err != nil {
			t.Fatal(err)
		}
	}
	return shards, h
}

func TestWriteThenRead(t *testing.T) {
	shards, h := newTestShards(t, []int{4, 4}, 2)
	off, _ := h.Offset([]int64{1, 2})
	owner := h.OwnerOf(off)
	if _, _, err := shards[owner].Write(1, off, isa.Float(3.5)); err != nil {
		t.Fatal(err)
	}
	v, res, err := shards[owner].ReadLocal(1, off, Waiter{})
	if err != nil || res != ReadHit || v.F() != 3.5 {
		t.Fatalf("read = %v res=%d err=%v, want hit 3.5", v, res, err)
	}
}

func TestDeferredReadReleasedByWrite(t *testing.T) {
	shards, h := newTestShards(t, []int{4, 4}, 2)
	off, _ := h.Offset([]int64{1, 1})
	owner := h.OwnerOf(off)
	w := Waiter{PE: 1, SP: 42, Slot: 7}
	_, res, err := shards[owner].ReadLocal(1, off, w)
	if err != nil || res != ReadDeferred {
		t.Fatalf("res=%d err=%v, want deferred", res, err)
	}
	if shards[owner].DeferredReads != 1 {
		t.Errorf("DeferredReads = %d, want 1", shards[owner].DeferredReads)
	}
	local, remote, err := shards[owner].Write(1, off, isa.Int(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != 1 || local[0] != w {
		t.Fatalf("released local waiters %v, want [%v]", local, w)
	}
	if len(remote) != 0 {
		t.Fatalf("released remote waiters %v, want none", remote)
	}
	// A second write must be a single-assignment violation.
	_, _, err = shards[owner].Write(1, off, isa.Int(10))
	var sav *SingleAssignmentError
	if !errors.As(err, &sav) {
		t.Fatalf("second write err = %v, want SingleAssignmentError", err)
	}
}

func TestRemoteWaiterReleasedByWrite(t *testing.T) {
	shards, h := newTestShards(t, []int{4, 4}, 2)
	off, _ := h.Offset([]int64{1, 1})
	owner := h.OwnerOf(off)
	rw := RemoteWaiter{PE: 1, SP: 5, Slot: 3}
	if err := shards[owner].QueueRemote(1, off, rw); err != nil {
		t.Fatal(err)
	}
	_, remote, err := shards[owner].Write(1, off, isa.Int(1))
	if err != nil || len(remote) != 1 || remote[0] != rw {
		t.Fatalf("remote=%v err=%v, want [%v]", remote, err, rw)
	}
}

func TestReadNotOwnedIsRemote(t *testing.T) {
	shards, h := newTestShards(t, []int{4, 4}, 2)
	// Find an offset owned by PE1 and read it from PE0's shard.
	off := 0
	for o := 0; o < h.Elems(); o++ {
		if h.OwnerOf(o) == 1 {
			off = o
			break
		}
	}
	_, res, err := shards[0].ReadLocal(1, off, Waiter{})
	if err != nil || res != ReadRemote {
		t.Fatalf("res=%d err=%v, want remote", res, err)
	}
}

func TestPageExtractInstallLookup(t *testing.T) {
	shards, h := newTestShards(t, []int{4, 4}, 2)
	off, _ := h.Offset([]int64{1, 3})
	owner := h.OwnerOf(off)
	if _, _, err := shards[owner].Write(1, off, isa.Float(2.25)); err != nil {
		t.Fatal(err)
	}
	pageIdx, pg, elems, err := shards[owner].ExtractPage(1, off)
	if err != nil {
		t.Fatal(err)
	}
	if elems != 8 {
		t.Errorf("page elems = %d, want 8", elems)
	}
	other := 1 - owner
	shards[other].InstallPage(1, pageIdx, &pg)
	v, hitPage, hitElem := shards[other].CacheLookup(1, h, off)
	if !hitPage || !hitElem || v.F() != 2.25 {
		t.Fatalf("cache lookup = %v %v %v, want hit 2.25", v, hitPage, hitElem)
	}
	// An element absent at extraction time stays a miss.
	off2, _ := h.Offset([]int64{1, 4})
	if h.PageOf(off2) != pageIdx {
		t.Fatalf("test setup: offsets not on same page")
	}
	_, hitPage, hitElem = shards[other].CacheLookup(1, h, off2)
	if !hitPage || hitElem {
		t.Fatalf("absent element: hitPage=%v hitElem=%v, want true,false", hitPage, hitElem)
	}
}

func TestDoubleInstallFails(t *testing.T) {
	shards, h := newTestShards(t, []int{4}, 1)
	if err := shards[0].Install(h); err == nil {
		t.Fatal("double install should fail")
	}
}

// TestIStructureChurchRosser property: for a random set of (offset, value)
// writes and interleaved reads in any order, every read eventually observes
// exactly the written value — reads before the write are deferred and then
// released with the same value.
func TestIStructureChurchRosser(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := NewHeader(1, "A", []int{16}, 8, 1, 0, true)
		if err != nil {
			return false
		}
		s := NewShard(0)
		if err := s.Install(h); err != nil {
			return false
		}
		want := make(map[int]int64)
		type pending struct {
			off int
			w   Waiter
		}
		released := make(map[Waiter]isa.Value)
		var ops []int // offsets to write, shuffled
		for o := 0; o < 16; o++ {
			want[o] = rng.Int63n(1000)
			ops = append(ops, o)
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		got := make(map[Waiter]isa.Value)
		wid := int64(0)
		// Interleave reads and writes randomly.
		reads := make([]pending, 0, 32)
		for o := 0; o < 16; o++ {
			reads = append(reads, pending{o, Waiter{SP: wid, Slot: o}})
			wid++
			reads = append(reads, pending{o, Waiter{SP: wid, Slot: o}})
			wid++
		}
		rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
		ri, wi := 0, 0
		for ri < len(reads) || wi < len(ops) {
			doRead := ri < len(reads) && (wi >= len(ops) || rng.Intn(2) == 0)
			if doRead {
				p := reads[ri]
				ri++
				v, res, err := s.ReadLocal(1, p.off, p.w)
				if err != nil {
					return false
				}
				if res == ReadHit {
					got[p.w] = v
				}
			} else {
				o := ops[wi]
				wi++
				local, _, err := s.Write(1, o, isa.Int(want[o]))
				if err != nil {
					return false
				}
				for _, w := range local {
					released[w] = isa.Int(want[o])
				}
			}
		}
		for _, p := range reads {
			var v isa.Value
			var ok bool
			if v, ok = got[p.w]; !ok {
				if v, ok = released[p.w]; !ok {
					return false // read never satisfied
				}
			}
			if v.I != want[p.off] {
				return false
			}
		}
		return s.PendingReads() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheNeverContradictsOwner property: a cached page entry, once
// present, always equals the owner's value — the single-assignment
// coherence argument of §4 ("a cached page will never have to be sent
// back").
func TestCacheNeverContradictsOwner(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := NewHeader(1, "A", []int{8, 8}, 8, 2, 0, true)
		if err != nil {
			return false
		}
		owner, reader := NewShard(0), NewShard(1)
		if owner.Install(h) != nil || reader.Install(h) != nil {
			return false
		}
		lo, hi := h.SegmentElems(0)
		// Random interleaving of writes on PE0 and page pulls into PE1.
		offs := rng.Perm(hi - lo)
		for step, k := range offs {
			if _, _, err := owner.Write(1, lo+k, isa.Int(int64(k*7))); err != nil {
				return false
			}
			if step%3 == 0 {
				pageIdx, pg, _, err := owner.ExtractPage(1, lo+k)
				if err != nil {
					return false
				}
				reader.InstallPage(1, pageIdx, &pg)
			}
		}
		// Every cached-present element must equal the owner's value.
		for off := lo; off < hi; off++ {
			cv, _, hitElem := reader.CacheLookup(1, h, off)
			if !hitElem {
				continue
			}
			ov, present := owner.Peek(1, off)
			if !present || !cv.Equal(ov) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractPageErrors(t *testing.T) {
	s := NewShard(0)
	if _, _, _, err := s.ExtractPage(9, 0); err == nil {
		t.Fatal("unknown array should fail")
	}
	h, _ := NewHeader(1, "A", []int{16}, 8, 2, 0, true)
	_ = s.Install(h)
	// Offset owned by the other PE.
	if _, _, _, err := s.ExtractPage(1, 15); err == nil {
		t.Fatal("non-owned page should fail")
	}
}

// TestExtractPageViews: a full page ships as a view of the owner's segment,
// its capacity clipped to the page; a partial page ships as a copy, which a
// later owner write does not reach.
func TestExtractPageViews(t *testing.T) {
	// 44 elements in 8-element pages on 2 PEs: PE 1 owns pages 3..5, the
	// last of them 4 elements long.
	h, err := NewHeader(1, "A", []int{44}, 8, 2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	s := NewShard(1)
	if err := s.Install(h); err != nil {
		t.Fatal(err)
	}
	a := s.Array(1)
	base, vals, set := a.Segment()
	if base != 24 || len(vals) != 20 {
		t.Fatalf("segment [%d, +%d), want [24, +20)", base, len(vals))
	}
	const gap = 35 // page 4 stays partial
	for off := base; off < h.Elems(); off++ {
		if off == gap {
			continue
		}
		if _, _, err := a.Write(off, isa.Float(float64(off))); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ off, page, lo, n int }{{26, 3, 0, 8}, {41, 5, 16, 4}} {
		pageIdx, pg, elems, err := a.ExtractPage(tc.off)
		if err != nil {
			t.Fatal(err)
		}
		if pageIdx != tc.page || elems != tc.n || len(pg.Vals) != tc.n || len(pg.Set) != tc.n {
			t.Fatalf("offset %d: page %d of %d elements (%d vals, %d bits), want page %d of %d",
				tc.off, pageIdx, elems, len(pg.Vals), len(pg.Set), tc.page, tc.n)
		}
		if &pg.Vals[0] != &vals[tc.lo] || &pg.Set[0] != &set[tc.lo] {
			t.Errorf("full page %d is a copy, not a view of the segment", tc.page)
		}
		if cap(pg.Vals) != tc.n || cap(pg.Set) != tc.n {
			t.Errorf("full page %d: cap %d/%d, want %d: an append could reach the next page",
				tc.page, cap(pg.Vals), cap(pg.Set), tc.n)
		}
	}

	_, pg, elems, err := a.ExtractPage(gap)
	if err != nil {
		t.Fatal(err)
	}
	if elems != 8 || &pg.Vals[0] == &vals[8] || &pg.Set[0] == &set[8] {
		t.Fatal("partial page 4 shares the segment")
	}
	if _, _, err := a.Write(gap, isa.Float(1)); err != nil {
		t.Fatal(err)
	}
	if i := gap - 32; pg.Set[i] || pg.Vals[i] != (isa.Value{}) {
		t.Errorf("a write after extraction shows in the partial snapshot: %v %v", pg.Vals[i], pg.Set[i])
	}

	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := a.ExtractPage(26); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("full-page extract: %.0f allocs, want none (a view, its header a value)", allocs)
	}
}

// cachePage builds a full present page snapshot for cache tests.
func cachePage(elems int, base float64) *CachedPage {
	pg := &CachedPage{Vals: make([]isa.Value, elems), Set: make([]bool, elems)}
	for i := range pg.Vals {
		pg.Vals[i] = isa.Float(base + float64(i))
		pg.Set[i] = true
	}
	return pg
}

// TestFirstReadsAllocateNothing: reads that cache nothing keep no per-page
// state, so a fresh array's first owned read and first cache miss allocate
// nothing. Each run reads a different fresh array, because AllocsPerRun
// runs its function once before it counts.
func TestFirstReadsAllocateNothing(t *testing.T) {
	h, _ := NewHeader(1, "A", []int{16, 16}, 8, 2, 0, true) // PE 1 owns elements 128..255
	const runs = 20
	for _, tc := range []struct {
		name string
		read func(a *Array)
	}{
		{"ReadLocal", func(a *Array) { a.ReadLocal(130, Waiter{}) }},
		{"CacheLookup miss", func(a *Array) { a.CacheLookup(3) }},
	} {
		arrs := make([]*Array, runs+1)
		for i := range arrs {
			s := NewShard(1)
			_ = s.Install(h)
			arrs[i] = s.Array(1)
			if _, _, err := arrs[i].Write(130, isa.Float(1)); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		if allocs := testing.AllocsPerRun(runs, func() { tc.read(arrs[i]); i++ }); allocs != 0 {
			t.Errorf("first %s of a fresh array: %.0f allocations, want 0", tc.name, allocs)
		}
	}
}

// TestCacheCapNeverExceeded: installing any number of pages keeps the
// resident count at or below CacheCap, and each overflow install evicts
// exactly one page.
func TestCacheCapNeverExceeded(t *testing.T) {
	h, _ := NewHeader(1, "A", []int{16, 16}, 8, 2, 0, true)
	s := NewShard(1)
	_ = s.Install(h)
	s.CacheCap = 3
	for p := 0; p < 20; p++ {
		s.InstallPage(1, p, cachePage(8, float64(p)))
		if got := s.CachedPages(); got > s.CacheCap {
			t.Fatalf("after installing page %d: %d resident pages, cap %d", p, got, s.CacheCap)
		}
	}
	if s.CachedPages() != 3 {
		t.Fatalf("resident = %d, want 3 (full cache)", s.CachedPages())
	}
	if s.Evictions != 17 {
		t.Fatalf("evictions = %d, want 17 (20 installs into 3 frames)", s.Evictions)
	}
	// Reinstalling the same resident page must not evict anything.
	before := s.Evictions
	s.InstallPage(1, 19, cachePage(8, 99))
	if s.Evictions != before || s.CachedPages() != 3 {
		t.Fatalf("refresh of resident page evicted (evictions %d→%d)", before, s.Evictions)
	}
	// An overflow install takes over its victim's slot: it allocates nothing.
	pg, p := cachePage(8, 0), 0
	if allocs := testing.AllocsPerRun(40, func() { s.InstallPage(1, p%20, pg); p++ }); allocs != 0 {
		t.Fatalf("installs into a full cache: %.0f allocations each, want 0", allocs)
	}
}

// TestCacheClockSecondChance: a page referenced since the last sweep
// survives the next eviction; the unreferenced one goes.
func TestCacheClockSecondChance(t *testing.T) {
	h, _ := NewHeader(1, "A", []int{8, 8}, 8, 2, 0, true)
	s := NewShard(1)
	_ = s.Install(h)
	s.CacheCap = 2
	s.InstallPage(1, 0, cachePage(8, 0))
	s.InstallPage(1, 1, cachePage(8, 10))
	// Touch page 0: its CLOCK reference bit is now set.
	if _, hitPage, hitElem := s.CacheLookup(1, h, 0); !hitPage || !hitElem {
		t.Fatal("probe of resident page 0 missed")
	}
	// Page 2 forces an eviction: page 1 (unreferenced) must be the victim,
	// page 0 gets its second chance.
	s.InstallPage(1, 2, cachePage(8, 20))
	if _, hitPage, _ := s.CacheLookup(1, h, 0); !hitPage {
		t.Fatal("referenced page 0 was evicted — no second chance")
	}
	if _, hitPage, _ := s.CacheLookup(1, h, 8); hitPage {
		t.Fatal("unreferenced page 1 survived while the cache overflowed")
	}
	if _, hitPage, _ := s.CacheLookup(1, h, 16); !hitPage {
		t.Fatal("just-installed page 2 not resident")
	}
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	// Re-installing the evicted page is a refetch.
	s.InstallPage(1, 1, cachePage(8, 10))
	if s.Refetches != 1 {
		t.Fatalf("refetches = %d, want 1", s.Refetches)
	}
	// First-time installs never counted as refetches.
	if s.CachedPages() > s.CacheCap {
		t.Fatalf("resident %d exceeds cap %d", s.CachedPages(), s.CacheCap)
	}
}

// TestCacheUnboundedByDefault: CacheCap 0 keeps the pre-eviction behavior.
func TestCacheUnboundedByDefault(t *testing.T) {
	h, _ := NewHeader(1, "A", []int{32, 32}, 8, 2, 0, true)
	s := NewShard(1)
	_ = s.Install(h)
	for p := 0; p < 64; p++ {
		s.InstallPage(1, p, cachePage(8, float64(p)))
	}
	if s.CachedPages() != 64 || s.Evictions != 0 || s.Refetches != 0 {
		t.Fatalf("resident=%d evictions=%d refetches=%d, want 64/0/0",
			s.CachedPages(), s.Evictions, s.Refetches)
	}
}

func TestFilledAndPendingCounters(t *testing.T) {
	h, _ := NewHeader(1, "A", []int{8}, 8, 1, 0, true)
	s := NewShard(0)
	_ = s.Install(h)
	if s.Filled(1) != 0 {
		t.Fatal("fresh array should be empty")
	}
	_, res, _ := s.ReadLocal(1, 3, Waiter{SP: 1, Slot: 0})
	if res != ReadDeferred || s.PendingReads() != 1 {
		t.Fatalf("res=%v pending=%d", res, s.PendingReads())
	}
	if _, _, err := s.Write(1, 3, isa.Float(1)); err != nil {
		t.Fatal(err)
	}
	if s.PendingReads() != 0 || s.Filled(1) != 1 {
		t.Fatalf("pending=%d filled=%d", s.PendingReads(), s.Filled(1))
	}
}

// TestIdempotentRewriteOffByDefault pins strict single assignment: even a
// bit-identical rewrite fails. The shard has no mode that absorbs one.
func TestIdempotentRewriteOffByDefault(t *testing.T) {
	shards, h := newTestShards(t, []int{4, 4}, 2)
	off, _ := h.Offset([]int64{1, 2})
	if _, _, err := shards[0].Write(1, off, isa.Float(1)); err != nil {
		t.Fatal(err)
	}
	var saErr *SingleAssignmentError
	if _, _, err := shards[0].Write(1, off, isa.Float(1)); !errors.As(err, &saErr) {
		t.Fatalf("got %v, want single-assignment violation", err)
	}
}
