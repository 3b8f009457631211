package cluster

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
)

// Tests for the worker-side page-heat machinery: the adaptive-cap
// governor's hysteresis, the pinned post-steal fetch counts of
// page-granular steal grants, and the streaming prefetcher on a real
// sequential-scan kernel.

// TestCapGovernorHysteresis pins the governor's movement rules: growth is
// immediate and multiplicative under refetch pressure (capped at the
// ceiling), shrinking needs capQuietRounds consecutive eviction-free
// rounds (clamped at the floor), and rounds that evict without
// refetching hold position — reacting to those is what would oscillate.
func TestCapGovernorHysteresis(t *testing.T) {
	type round struct {
		refetch, evict int64
		wantCap        int
		wantChanged    bool
	}
	cases := []struct {
		name   string
		floor  int
		rounds []round
	}{
		{"grow on refetch pressure", 4, []round{
			{refetch: 1, evict: 3, wantCap: 6, wantChanged: true},
			{refetch: 5, evict: 9, wantCap: 9, wantChanged: true},
		}},
		{"growth saturates at the ceiling", 2, []round{
			{refetch: 1, wantCap: 3, wantChanged: true},
			{refetch: 1, wantCap: 4, wantChanged: true},
			{refetch: 1, wantCap: 6, wantChanged: true},
			{refetch: 1, wantCap: 9, wantChanged: true},
			{refetch: 1, wantCap: 13, wantChanged: true},
			{refetch: 1, wantCap: 16, wantChanged: true},
			{refetch: 1, wantCap: 16, wantChanged: false},
		}},
		{"shrink only after quiet hysteresis", 4, []round{
			{refetch: 1, wantCap: 6, wantChanged: true},
			{wantCap: 6, wantChanged: false}, // quiet 1
			{wantCap: 6, wantChanged: false}, // quiet 2
			{wantCap: 5, wantChanged: true},  // quiet 3: shrink, counter resets
			{wantCap: 5, wantChanged: false},
			{wantCap: 5, wantChanged: false},
			{wantCap: 4, wantChanged: true}, // floor reached
			{wantCap: 4, wantChanged: false},
			{wantCap: 4, wantChanged: false},
			{wantCap: 4, wantChanged: false}, // floor holds
		}},
		{"evictions without refetches hold position", 4, []round{
			{refetch: 1, wantCap: 6, wantChanged: true},
			{evict: 2, wantCap: 6, wantChanged: false},
			{wantCap: 6, wantChanged: false},
			{wantCap: 6, wantChanged: false},
			{evict: 1, wantCap: 6, wantChanged: false}, // quiet run broken
			{wantCap: 6, wantChanged: false},
			{wantCap: 6, wantChanged: false},
			{wantCap: 5, wantChanged: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newCapGovernor(tc.floor)
			if !g.enabled() {
				t.Fatal("governor disabled for a positive floor")
			}
			for i, r := range tc.rounds {
				cap, changed := g.tick(r.refetch, r.evict)
				if cap != r.wantCap || changed != r.wantChanged {
					t.Fatalf("round %d: tick(%d,%d) = (%d,%v), want (%d,%v)",
						i, r.refetch, r.evict, cap, changed, r.wantCap, r.wantChanged)
				}
			}
		})
	}
	// An unbounded cache (cap 0) disables the governor entirely.
	g := newCapGovernor(0)
	if g.enabled() {
		t.Fatal("governor enabled for an unbounded cache")
	}
	if cap, changed := g.tick(100, 100); cap != 0 || changed {
		t.Fatalf("disabled governor moved: (%d,%v)", cap, changed)
	}
}

// TestTrireadStealCacheCounts pins the steal and page-cache counts of
// triread (the triangular kernel with reads of one shared array) at 8 PEs,
// cap 8, stealing on, on the harness's zero schedule. Grants are the
// victim's oldest half. Heat off, 31 steals pay 58 demand fetches; heat
// on, streaming prefetch brings it to 39 over 34 steals (33 prefetches, 18
// of them used). Each arm runs twice and must repeat exactly.
func TestTrireadStealCacheCounts(t *testing.T) {
	k, _ := kernels.ByName("triread")
	type stats struct{ steals, misses, hits, prefetches, prefetchHits int64 }
	for _, tc := range []struct {
		heat bool
		want stats
	}{
		{false, stats{31, 58, 449, 0, 0}},
		{true, stats{34, 39, 538, 33, 18}},
	} {
		pinTwice(t, fmt.Sprintf("heat=%v", tc.heat), tc.want, func() stats {
			_, res := harnessRun(t, k, 26, 8, Config{Steal: true, CachePages: 8, Heat: tc.heat}, schedule{})
			c := res.Stats
			return stats{c.Steals, c.CacheMisses, c.CacheHits, c.Prefetches, c.PrefetchHits}
		})
	}
}

// TestStreamingPrefetchOnSequentialScan pins the hit rate of the bounded
// page cache against its cap, heat off and on, on matmul — every row task
// re-reads all of B, so the working set exceeds any small cap: n=16 on
// eight workers on the harness's zero schedule with 32-element pages.
// Unbounded (cap 0) the hit rate is 0.980. At cap 2 the plain bound falls to 0.496 and streaming
// prefetch wins back 0.614 with 1,152 prefetches, every one of which
// serves a demand read; at cap 4, 0.496 against 0.681 (the same 1,152); at
// cap 8 the bound no longer bites (0.980 / 0.986, 36 prefetches). Each arm
// repeats exactly on a second run and gathers arrays bit-for-bit the
// simulator's. The in-flight page table moved the two heat-on arms from
// 0.615 and 0.680: owners now also ship the page with each read they queue
// as deferred, and those extra installs shift what a two- or four-page
// cache evicts (this schedule makes no joins).
func TestStreamingPrefetchOnSequentialScan(t *testing.T) {
	k, _ := kernels.ByName("matmul")
	type stats struct {
		hitRate                  float64
		prefetches, prefetchHits int64
	}
	for _, tc := range []struct {
		cap  int
		heat bool
		want stats
	}{
		{0, false, stats{0.980, 0, 0}},
		{2, false, stats{0.496, 0, 0}},
		{2, true, stats{0.614, 1152, 1152}},
		{4, false, stats{0.496, 0, 0}},
		{4, true, stats{0.681, 1152, 1152}},
		{8, false, stats{0.980, 0, 0}},
		{8, true, stats{0.986, 36, 36}},
	} {
		pinTwice(t, fmt.Sprintf("cap=%d heat=%v", tc.cap, tc.heat), tc.want, func() stats {
			_, res := harnessRun(t, k, 16, 8, Config{PageElems: 32, CachePages: tc.cap, Heat: tc.heat}, schedule{})
			c := res.Stats
			return stats{round3(float64(c.CacheHits) / float64(c.CacheHits+c.CacheMisses)), c.Prefetches, c.PrefetchHits}
		})
	}
}
