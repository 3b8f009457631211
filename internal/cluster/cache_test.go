package cluster

import (
	"math"
	"testing"

	"repro/internal/kernels"
)

// Tests for the bounded page cache (Config.CachePages): the cap is a hard
// bound on resident cached pages at every moment of a run, and eviction is
// invisible in the results (single assignment: a refetch returns the same
// immutable data).

// makespan returns a run's makespan — the most instructions any PE
// executed — and its utilization, mean ÷ max per-PE instructions: the
// load-balance bound a fixed schedule states.
func makespan(res *Result) (int64, float64) {
	var most, sum int64
	for _, n := range res.PEInstrs {
		sum += n
		most = max(most, n)
	}
	return most, round3(float64(sum) / float64(int64(len(res.PEInstrs))*most))
}

// round3 rounds a pinned ratio to the three places its test states.
func round3(x float64) float64 { return math.Round(1000*x) / 1000 }

// pinTwice runs one arm of a pinned harness test twice: the schedule is
// deterministic, so the runs must agree, and must equal want.
func pinTwice[S comparable](t *testing.T, arm string, want S, run func() S) {
	t.Helper()
	got := run()
	if again := run(); again != got {
		t.Fatalf("%s: schedule not deterministic: %+v then %+v", arm, got, again)
	}
	if got != want {
		t.Errorf("%s: got %+v, want %+v", arm, got, want)
	}
}

// TestCacheCapHardBoundDuringRun asserts the acceptance criterion
// directly: with CachePages set, no shard's resident cached page count
// ever exceeds the cap at any observable point of the run — checked after
// every harness round of a remote-read-heavy kernel, not just at the end.
func TestCacheCapHardBoundDuringRun(t *testing.T) {
	const cap = 2
	k, _ := kernels.ByName("mirror")
	_, res := harnessRun(t, k, 12, 4, Config{CachePages: cap}, schedule{}, func(h *harness) {
		h.each = func() {
			for _, w := range h.ws {
				if got := w.shard.CachedPages(); got > cap {
					t.Fatalf("pe %d: %d resident cached pages, cap %d", w.pe, got, cap)
				}
			}
		}
	})
	if res.Stats.Evictions == 0 {
		t.Fatal("mirror at cap 2 evicted nothing — the bound was never exercised")
	}
	t.Logf("mirror@4PE cap=%d: %d evictions, %d hits", cap, res.Stats.Evictions, res.Stats.CacheHits)
}

// TestShippedPagesMatchOwner guards the read-only contract of shipped
// pages: a full page travels as a view of its owner's segment (KPage), so
// a receiver that wrote into one would corrupt the owner's array. Matmul
// n=16 on eight harness workers with a 4-page cache and heat on churns
// through evictions and refetches. At quiescence every element present in
// a resident cached page equals its owner's, and the gathered arrays are
// the simulator's: a write into a view would show in the second, a write
// into a copied partial page in the first. The same kernel and mirror then
// run on free-running goroutines, where under -race an owner writing one
// element while a receiver reads a view of its neighbours is the
// concurrency the views add.
func TestShippedPagesMatchOwner(t *testing.T) {
	k, _ := kernels.ByName("matmul")
	const n = 16
	h, res := harnessRun(t, k, n, 8, Config{PageElems: 32, CachePages: 4, Heat: true}, schedule{})
	ws := h.ws
	var resident, full int
	for id, g := range res.arrays {
		h := g.h
		for page := range h.Pages() {
			lo := page * h.PageElems
			hi := min(lo+h.PageElems, h.Elems())
			owner := ws[h.OwnerOf(lo)].shard.Array(id)
			for _, w := range ws {
				a := w.shard.Array(id)
				if a == owner {
					continue
				}
				if _, hitPage, _ := a.CacheLookup(lo); !hitPage {
					continue
				}
				resident++
				set := 0
				for off := lo; off < hi; off++ {
					v, _, hitElem := a.CacheLookup(off)
					if !hitElem {
						continue
					}
					set++
					if ov, ok := owner.Peek(off); !ok || v != ov {
						t.Fatalf("pe %d: cached %s[%d] = %v, owner has %v (present %v)", w.pe, h.Name, off, v, ov, ok)
					}
				}
				if set == hi-lo {
					full++
				}
			}
		}
	}
	if full == 0 {
		t.Fatalf("no resident cached page is full (%d resident): no view was shipped", resident)
	}
	t.Logf("matmul@8 cap=4 heat: %d resident cached pages, %d full", resident, full)

	for _, name := range []string{"matmul", "mirror"} {
		k, _ := kernels.ByName(name)
		prog := compile(t, k.File(), k.Source)
		wantVals, wantMasks := simArraysMasked(t, prog, 4, k.Arrays, k.Args(n)...)
		res, err := Execute(testCtx(t), prog, Config{NumPEs: 4, PageElems: 8, CachePages: 4, Heat: true}, k.Args(n)...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstSimMasked(t, res, wantVals, wantMasks)
	}
}

// TestDumpAliasesSegment: the result gather ships a worker's owned segment
// itself, not a copy — after termination no element can change.
func TestDumpAliasesSegment(t *testing.T) {
	w := newHotWorker(t)
	id := w.filledArray(t, 1<<20, 40).AsInt()
	a := w.shard.Array(id)
	w.handleDumpReq(a, &Msg{Kind: KDumpReq, Arr: id})
	m, ok := w.driver.in.tryRecv()
	if !ok || m.Kind != KDump {
		t.Fatalf("no KDump at the driver (got %+v)", m)
	}
	base, vals, set := a.Segment()
	if int(m.Off) != base || len(m.Vals) != 40 || len(m.Set) != 40 {
		t.Fatalf("dump [%d, +%d) with %d bits, want [%d, +40)", m.Off, len(m.Vals), len(m.Set), base)
	}
	if &m.Vals[0] != &vals[0] || &m.Set[0] != &set[0] {
		t.Fatal("KDump carries a copy of the segment, not the segment")
	}
}
