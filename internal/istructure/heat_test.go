package istructure

import (
	"fmt"
	"testing"

	"repro/internal/isa"
)

// Tests for the page cache's CLOCK policy and refetch window, and for the
// sequential-scan detector: the cache must be indistinguishable from a
// reference CLOCK ring, the refetch window must end exactly two
// generations on, and the detector must recognize exactly forward scans.

// refClock is a reference model of the cache: a CLOCK ring of explicit
// ref bits plus paired generational eviction maps.
// The equivalence test drives it and the Shard with one op sequence and
// compares residency and counters after every op.
type refClock struct {
	ring                 []refSlot
	hand                 int
	cap                  int
	evicted, evictedPrev map[pageKey]struct{}
	evictions, refetches int64
}

type refSlot struct {
	key pageKey
	ref bool
}

// pageKey identifies one cached page in the reference model.
type pageKey struct {
	arr  int64
	page int
}

func newRefClock(cap int) *refClock {
	return &refClock{cap: cap, evicted: map[pageKey]struct{}{}, evictedPrev: map[pageKey]struct{}{}}
}

func (r *refClock) find(k pageKey) int {
	for i, s := range r.ring {
		if s.key == k {
			return i
		}
	}
	return -1
}

func (r *refClock) lookup(k pageKey) bool {
	if i := r.find(k); i >= 0 {
		r.ring[i].ref = true
		return true
	}
	return false
}

func (r *refClock) victim() int {
	for {
		if r.hand >= len(r.ring) {
			r.hand = 0
		}
		if r.ring[r.hand].ref {
			r.ring[r.hand].ref = false
			r.hand++
			continue
		}
		return r.hand
	}
}

func (r *refClock) evictAt(i int) {
	if len(r.evicted) >= evictedGen {
		r.evictedPrev = r.evicted
		r.evicted = map[pageKey]struct{}{}
	}
	r.evicted[r.ring[i].key] = struct{}{}
	r.evictions++
}

func (r *refClock) install(k pageKey) {
	if i := r.find(k); i >= 0 {
		r.ring[i].ref = true
		return
	}
	if _, was := r.evicted[k]; was {
		r.refetches++
	} else if _, was := r.evictedPrev[k]; was {
		r.refetches++
	}
	if r.cap > 0 && len(r.ring) >= r.cap {
		i := r.victim()
		r.evictAt(i)
		r.ring[i] = refSlot{key: k}
		r.hand = i + 1
	} else {
		r.ring = append(r.ring, refSlot{key: k})
	}
}

// TestCacheClockEquivalence drives the shard's cache and the reference
// ring with the same deterministic pseudo-random sequence of installs and
// lookups and requires identical residency, eviction counts, and refetch
// counts at every step. The sequence stays under one refetch generation
// (< evictedGen evictions), where the paired maps and the per-page
// eviction stamps define the same window.
func TestCacheClockEquivalence(t *testing.T) {
	const (
		pageElems = 8
		cap       = 8
		arrays    = 3
		pages     = 20
		ops       = 15000
	)
	s := NewShard(1)
	hs := make([]*Header, arrays)
	for a := 0; a < arrays; a++ {
		h, err := NewHeader(int64(a+1), fmt.Sprintf("A%d", a), []int{32, 32}, pageElems, 2, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		hs[a] = h
		if err := s.Install(h); err != nil {
			t.Fatal(err)
		}
	}
	s.CacheCap = cap
	ref := newRefClock(cap)

	rng := uint64(42)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for op := 0; op < ops; op++ {
		a := next(arrays)
		p := next(pages)
		k := pageKey{int64(a + 1), p}
		if next(5) < 2 { // 40% installs, 60% lookups
			s.InstallPage(k.arr, p, &CachedPage{Vals: make([]isa.Value, pageElems), Set: make([]bool, pageElems)})
			ref.install(k)
		} else {
			_, hitPage, _ := s.CacheLookup(k.arr, hs[a], p*pageElems)
			if got := ref.lookup(k); got != hitPage {
				t.Fatalf("op %d: lookup residency of %v diverged: shard=%v ref=%v", op, k, hitPage, got)
			}
		}
		if s.CachedPages() != len(ref.ring) {
			t.Fatalf("op %d: resident count diverged: shard=%d ref=%d", op, s.CachedPages(), len(ref.ring))
		}
		if s.Evictions != ref.evictions {
			t.Fatalf("op %d: evictions diverged: shard=%d ref=%d", op, s.Evictions, ref.evictions)
		}
		if s.Refetches != ref.refetches {
			t.Fatalf("op %d: refetches diverged: shard=%d ref=%d", op, s.Refetches, ref.refetches)
		}
	}
	if s.Evictions == 0 || s.Refetches == 0 {
		t.Fatalf("vacuous equivalence: %d evictions, %d refetches", s.Evictions, s.Refetches)
	}
	if s.Evictions >= evictedGen {
		t.Fatalf("%d evictions crossed the generation bound %d — the reference window no longer matches", s.Evictions, evictedGen)
	}
}

// TestScanRunDetector: the sequential-run length grows along a forward
// scan, resets on a jump, and restarts at 1 on an isolated touch.
func TestScanRunDetector(t *testing.T) {
	h, err := NewHeader(1, "A", []int{64, 8}, 8, 2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	s := NewShard(1)
	if err := s.Install(h); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		touches []int // page indices, in order
		page    int   // query
		want    int32
	}{
		{"single touch", []int{3}, 3, 1},
		{"forward pair", []int{3, 4}, 4, 2},
		{"forward run of four", []int{2, 3, 4, 5}, 5, 4},
		{"jump resets", []int{2, 3, 9}, 9, 1},
		{"backward scan never accumulates", []int{5, 4, 3}, 3, 1},
		{"untouched page", []int{1, 2}, 7, 0},
		{"re-touch keeps run", []int{2, 3, 3}, 3, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := NewShard(1)
			if err := sh.Install(h); err != nil {
				t.Fatal(err)
			}
			a := sh.Array(1)
			for _, p := range tc.touches {
				a.Scan(p)
			}
			if got := a.runs[tc.page]; got != tc.want {
				t.Fatalf("run at page %d after scanning %v = %d, want %d", tc.page, tc.touches, got, tc.want)
			}
		})
	}
}

// TestRefetchWindowEdge: a page evicted in generation g and installed
// again in generation g+1 is a refetch, up to that generation's last
// eviction; installed again in g+2, it is not.
func TestRefetchWindowEdge(t *testing.T) {
	h, err := NewHeader(1, "A", []int{32, 32}, 8, 2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		evictions int64 // the shard's evictions before page 0 returns
		refetch   bool
	}{
		{evictedGen, true},       // the first eviction of generation 1
		{2*evictedGen - 1, true}, // the last eviction of generation 1
		{2 * evictedGen, false},  // the first eviction of generation 2
	} {
		s := NewShard(1)
		if err := s.Install(h); err != nil {
			t.Fatal(err)
		}
		s.CacheCap = 1
		// Page 0 goes in the shard's first eviction (generation 0); pages
		// 1 and 2 then take turns in the one frame.
		s.InstallPage(1, 0, cachePage(8, 0))
		for p := 1; s.Evictions < tc.evictions; p = 3 - p {
			s.InstallPage(1, p, cachePage(8, 0))
		}
		before := s.Refetches
		s.InstallPage(1, 0, cachePage(8, 0))
		if got := s.Refetches == before+1; got != tc.refetch {
			t.Errorf("page 0 evicted by eviction 1, installed again after %d evictions: refetch=%v, want %v",
				tc.evictions, got, tc.refetch)
		}
	}
}
