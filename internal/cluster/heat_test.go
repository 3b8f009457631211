package cluster

import (
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

// TestPageGranularStealReducesPostStealFetches pins the post-steal fetch
// counts of page-granular steal grants on the deterministic pumped
// schedule: triread (the triangular kernel with reads of one shared
// array) at 8 PEs, cap 8, stealing on, 31 steals in both arms. Heat off,
// the grants alone pay 42 demand fetches; heat on, streaming prefetch
// brings it to 35. The array-granular policy the page summary replaced
// paid 58 on this schedule: at array granularity every candidate reads
// the same array and scores alike. Free-running schedules resolve most of
// these reads through deferred tokens and cannot show the difference.
// Each arm runs twice and must repeat exactly.
func TestPageGranularStealReducesPostStealFetches(t *testing.T) {
	k, ok := kernels.ByName("triread")
	if !ok {
		t.Fatal("triread kernel missing")
	}
	type stats struct{ steals, misses, hits, prefetches, prefetchHits int64 }
	run := func(heat bool) stats {
		ws, _ := pumpedRun(t, k, 26, 8, Config{Steal: true, CachePages: 8, Heat: heat}, nil, nil)
		var st stats
		for _, w := range ws {
			st.steals += w.steal.steals
			st.misses += w.shard.CacheMisses
			st.hits += w.shard.CacheHits
			st.prefetches += w.counters().Prefetches
			st.prefetchHits += w.counters().PrefetchHits
		}
		return st
	}
	for _, tc := range []struct {
		heat bool
		want stats
	}{
		{false, stats{31, 42, 405, 0, 0}},
		{true, stats{31, 35, 431, 27, 13}},
	} {
		got := run(tc.heat)
		if again := run(tc.heat); again != got {
			t.Fatalf("heat=%v: pumped schedule not deterministic: %+v then %+v", tc.heat, got, again)
		}
		if got != tc.want {
			t.Errorf("heat=%v: steals/misses/hits/prefetches/prefetch hits = %+v, want %+v", tc.heat, got, tc.want)
		}
	}
}

// TestStreamingPrefetchOnSequentialScan runs matmul — row-major scans
// over every operand — under a tight page cap and checks that the heat
// arm streams pages ahead of the scan and that some of them serve demand
// reads, while the heat-off arm issues none.
func TestStreamingPrefetchOnSequentialScan(t *testing.T) {
	k, ok := kernels.ByName("matmul")
	if !ok {
		t.Fatal("matmul kernel missing")
	}
	prog := compile(t, k.File(), k.Source)
	ctx := testCtx(t)
	const n, pes = 16, 4
	offRes, err := Execute(ctx, prog, Config{NumPEs: pes, CachePages: 2}, k.Args(n)...)
	if err != nil {
		t.Fatal(err)
	}
	onRes, err := Execute(ctx, prog, Config{NumPEs: pes, CachePages: 2, Heat: true}, k.Args(n)...)
	if err != nil {
		t.Fatal(err)
	}
	if got := offRes.Stats.Prefetches; got != 0 {
		t.Fatalf("heat off: %d prefetches issued", got)
	}
	st := onRes.Stats
	t.Logf("heat on: prefetches=%d hits=%d cacheHits=%d cacheMisses=%d capEnd=%d",
		st.Prefetches, st.PrefetchHits, st.CacheHits, st.CacheMisses, st.CacheCapNow)
	if st.Prefetches == 0 {
		t.Fatal("heat on: sequential scans never triggered a prefetch")
	}
	if st.PrefetchHits == 0 {
		t.Fatal("heat on: no prefetched page ever served a demand read")
	}
	if st.CacheCapNow < int64(2*pes) {
		t.Fatalf("summed final cache cap %d below the configured floor %d", st.CacheCapNow, 2*pes)
	}
}
