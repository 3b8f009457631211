package cluster

import (
	"fmt"

	"repro/internal/isa"
)

// StealFetchStats is one deterministic steal-locality probe measurement.
type StealFetchStats struct {
	Steals       int64 // SP instances migrated
	Misses       int64 // demand page fetches (the post-steal cost under test)
	Hits         int64 // demand reads served from the cache
	Prefetches   int64 // pages requested ahead of the miss (heat arm)
	PrefetchHits int64 // prefetched pages that later served a demand read
}

// StealFetchProbe runs a kernel on hand-pumped workers — the same
// deterministic, adversarially fair round-robin schedule the steal tests
// use — with work stealing enabled, and reports the page-fetch counters at
// quiescence. Free-running schedules resolve most of a steal-heavy
// kernel's reads through the deferred-token path (the read reaches the
// owner before the write does, so no page ever ships) and therefore
// cannot show what a steal-grant policy costs; the pumped schedule
// interleaves every PE fairly, so stolen iterations read already-written
// pages and the post-steal fetch count is exact and reproducible. The
// CACHE experiment uses it to A/B array-granular locality (heat off, the
// steal-grant policy as first shipped) against page-granular ranking plus
// prefetch (heat on) on identical schedules.
func StealFetchProbe(prog *isa.Program, args []isa.Value, pes, cachePages int, heat bool) (StealFetchStats, error) {
	var st StealFetchStats
	cfg := Config{NumPEs: pes, PageElems: 8, DistThreshold: 16, Steal: true, CachePages: cachePages, Heat: heat}
	if err := cfg.fill(); err != nil {
		return st, err
	}
	eps := newChanTransport(pes, 0)
	ws := make([]*worker, pes)
	for pe := range ws {
		ws[pe] = newWorker(pe, &cfg, prog, eps[pe])
	}
	driver := eps[pes]
	drainDriver := func() error {
		for {
			m, ok := driver.TryRecv()
			if !ok {
				return nil
			}
			if m.Kind == KFail {
				return fmt.Errorf("cluster: probe worker failed: %s", m.Name)
			}
		}
	}

	if err := driver.Send(0, &Msg{Kind: KSpawn, Tmpl: int32(prog.EntryID), Args: args}); err != nil {
		return st, err
	}
	for rounds := 0; ; rounds++ {
		if rounds > 50_000_000 {
			return st, fmt.Errorf("cluster: probe did not quiesce")
		}
		progress := false
		for i, w := range ws {
			for {
				m, ok := eps[i].TryRecv()
				if !ok {
					break
				}
				w.handle(m)
				progress = true
			}
			if w.readyHead != len(w.ready) {
				w.step()
				progress = true
			} else {
				before := w.stealOutstanding
				w.maybeSteal()
				progress = progress || (w.stealOutstanding && !before)
			}
		}
		if err := drainDriver(); err != nil {
			return st, err
		}
		if !progress {
			break
		}
	}
	for _, w := range ws {
		if len(w.insts) != 0 {
			return st, fmt.Errorf("cluster: probe deadlocked with %d live SPs on pe %d", len(w.insts), w.pe)
		}
		st.Steals += w.steals
		st.Misses += w.shard.CacheMisses
		st.Hits += w.shard.CacheHits
		st.Prefetches += w.heat.prefetches
		st.PrefetchHits += w.heat.prefetchHits
	}
	return st, nil
}
