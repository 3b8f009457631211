package cluster

import (
	"math"
	"testing"

	"repro/internal/istructure"
	"repro/internal/kernels"
)

// Tests for the bounded page cache (Config.CachePages): the cap is a hard
// bound on resident cached pages at every moment of a run, and eviction is
// invisible in the results (single assignment: a refetch returns the same
// immutable data). This file also holds the pumped-schedule harness the
// cache, steal, heat and adapt tests share.

// pumpedCoord plays the driver's half of adaptive repartitioning on a
// pumped schedule: a probe round opens every `every` pumping rounds while
// the run is still making progress, closes once every PE has acked it, and
// the real coordinator's rebinds are broadcast at the close — the driver
// loop's round boundary with the wall clock taken out.
type pumpedCoord struct {
	ad    *adaptCoord
	every int
	round int32
	acks  int
	open  bool
}

// step runs after each pumping round; it reports whether the run must keep
// pumping (progress was made, or a probe round is in flight).
func (c *pumpedCoord) step(t *testing.T, driver Endpoint, pes, rounds int, progress bool) bool {
	t.Helper()
	broadcast := func(mk func() *Msg) {
		for pe := 0; pe < pes; pe++ {
			if err := driver.Send(pe, mk()); err != nil {
				t.Fatal(err)
			}
		}
	}
	switch {
	case c.open && c.acks < pes:
		return true
	case c.open:
		c.open = false
		for _, rb := range c.ad.tick(c.round) {
			broadcast(func() *Msg {
				return &Msg{Kind: KRebound, Tmpl: rb.tmpl, Lists: &MsgLists{Cuts: append([]int64(nil), rb.cuts...)}}
			})
		}
		return true
	case progress && rounds%c.every == 0:
		c.round++
		c.acks, c.open = 0, true
		broadcast(func() *Msg { return &Msg{Kind: KProbe, Round: c.round} })
	}
	return progress
}

// pumpedRun executes a kernel on hand-pumped workers — stepOneRound, a
// deterministic, adversarially fair schedule — with the job's knobs taken
// from cfg, and returns the workers and gathered arrays at quiescence. The
// page size is cfg.PageElems (8 when unset) and arrays of two pages or
// more are distributed. perRound, when non-nil, observes the workers after
// every pumping round (invariant checks mid-run); coord, when non-nil,
// drives probe rounds and rebinds (cfg.Adapt).
func pumpedRun(t *testing.T, k kernels.Kernel, n, pes int, cfg Config,
	perRound func([]*worker), coord *pumpedCoord) ([]*worker, map[int64]*gathered) {
	t.Helper()
	prog := compile(t, k.File(), k.Source)
	if cfg.PageElems == 0 {
		cfg.PageElems = 8
	}
	cfg.NumPEs = pes
	eps := newChanTransport(pes, 0)
	ws := make([]*worker, pes)
	for pe := range ws {
		eps[pe].out = &countingEP{Endpoint: eps[pe].out}
		ws[pe] = newWorker(pe, &cfg, prog, eps[pe])
	}
	driver := eps[pes]

	arrays := make(map[int64]*gathered)
	drainDriver := func() {
		for {
			m, ok := driver.in.tryRecv()
			if !ok {
				return
			}
			switch m.Kind {
			case KAlloc:
				dims := make([]int, len(m.Dims))
				for i, d := range m.Dims {
					dims[i] = int(d)
				}
				h, err := istructure.NewHeader(m.Arr, m.Name, dims, cfg.PageElems, pes, int(m.Origin), m.Dist)
				if err != nil {
					t.Fatal(err)
				}
				arrays[m.Arr] = &gathered{h: h, vals: make([]float64, h.Elems()), mask: make([]bool, h.Elems())}
			case KFail:
				t.Fatalf("worker failed: %s", m.Name)
			case KDump:
				g := arrays[m.Arr]
				if err := mergeDump(g.h.Name, g.vals, g.mask, m); err != nil {
					t.Fatal(err)
				}
			case KCostReport:
				if coord != nil {
					coord.ad.merge(m, coord.round)
				}
			case KAck:
				if coord != nil && m.Round == coord.round {
					coord.acks++
				}
			}
		}
	}

	if err := driver.Send(0, &Msg{Kind: KSpawn, Tmpl: int32(prog.EntryID), Args: k.Args(n)}); err != nil {
		t.Fatal(err)
	}
	for rounds := 0; ; rounds++ {
		if rounds > 50_000_000 {
			t.Fatal("pumped run did not quiesce")
		}
		progress := stepOneRound(ws)
		drainDriver()
		if coord != nil {
			progress = coord.step(t, driver, pes, rounds, progress)
		}
		if perRound != nil {
			perRound(ws)
		}
		if !progress {
			break
		}
	}
	var live int64
	for _, w := range ws {
		live += int64(len(w.insts))
	}
	if live != 0 {
		t.Fatalf("%d live SPs at quiescence (deadlock)", live)
	}
	for id, g := range arrays {
		for pe := 0; pe < pes; pe++ {
			lo, hi := g.h.SegmentElems(pe)
			if lo >= hi {
				continue
			}
			if err := driver.Send(pe, &Msg{Kind: KDumpReq, Arr: id}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for stepOneRound(ws) {
		drainDriver()
	}
	drainDriver()
	return ws, arrays
}

// countingEP counts the frames a pumped worker sends, by kind.
type countingEP struct {
	Endpoint
	sent [256]int64 // indexed by MsgKind
}

func (c *countingEP) Send(to int, m *Msg) error {
	c.sent[m.Kind]++
	return c.Endpoint.Send(to, m)
}

// makespan returns a pumped run's makespan — the most instructions any PE
// executed — and its utilization, mean ÷ max per-PE instructions: the
// load-balance bound a fixed schedule states.
func makespan(ws []*worker) (int64, float64) {
	var most, sum int64
	for _, w := range ws {
		n := w.counters().Instrs
		sum += n
		most = max(most, n)
	}
	return most, round3(float64(sum) / float64(int64(len(ws))*most))
}

// round3 rounds a pinned ratio to the three places its test states.
func round3(x float64) float64 { return math.Round(1000*x) / 1000 }

// pinTwice runs one arm of a pinned pumped-schedule test twice: the
// schedule is deterministic, so the runs must agree, and must equal want.
func pinTwice[S comparable](t *testing.T, arm string, want S, run func() S) {
	t.Helper()
	got := run()
	if again := run(); again != got {
		t.Fatalf("%s: pumped schedule not deterministic: %+v then %+v", arm, got, again)
	}
	if got != want {
		t.Errorf("%s: got %+v, want %+v", arm, got, want)
	}
}

// checkGathered compares pumped-run arrays bit-for-bit against the
// simulator reference.
func checkGathered(t *testing.T, arrays map[int64]*gathered,
	wantVals map[string][]float64, wantMasks map[string][]bool) {
	t.Helper()
	for name := range wantVals {
		var g *gathered
		for _, cand := range arrays {
			if cand.h.Name == name {
				g = cand
			}
		}
		if g == nil {
			t.Fatalf("array %q never allocated", name)
		}
		checkArray(t, name, g.vals, g.mask, wantVals[name], wantMasks[name])
	}
}

// TestCacheCapHardBoundDuringRun asserts the acceptance criterion
// directly: with CachePages set, no shard's resident cached page count
// ever exceeds the cap at any observable point of the run — checked after
// every pumping round of a remote-read-heavy kernel, not just at the end.
func TestCacheCapHardBoundDuringRun(t *testing.T) {
	const cap = 2
	k, _ := kernels.ByName("mirror")
	wantVals, wantMasks := simArraysMasked(t, compile(t, k.File(), k.Source), 4, k.Arrays, k.Args(12)...)
	ws, arrays := pumpedRun(t, k, 12, 4, Config{CachePages: cap}, func(ws []*worker) {
		for _, w := range ws {
			if got := w.shard.CachedPages(); got > cap {
				t.Fatalf("pe %d: %d resident cached pages, cap %d", w.pe, got, cap)
			}
		}
	}, nil)
	var evictions, hits int64
	for _, w := range ws {
		evictions += w.shard.Evictions
		hits += w.shard.CacheHits
	}
	if evictions == 0 {
		t.Fatal("mirror at cap 2 evicted nothing — the bound was never exercised")
	}
	t.Logf("mirror@4PE cap=%d: %d evictions, %d hits", cap, evictions, hits)
	checkGathered(t, arrays, wantVals, wantMasks)
}

// TestShippedPagesMatchOwner guards the read-only contract of shipped
// pages: a full page travels as a view of its owner's segment (KPage), so
// a receiver that wrote into one would corrupt the owner's array. Matmul
// n=16 on eight pumped workers with a 4-page cache and heat on churns
// through evictions and refetches. At quiescence every element present in
// a resident cached page equals its owner's, and the gathered arrays are
// the simulator's: a write into a view would show in the second, a write
// into a copied partial page in the first. The same kernel and mirror then
// run on free-running goroutines, where under -race an owner writing one
// element while a receiver reads a view of its neighbours is the
// concurrency the views add.
func TestShippedPagesMatchOwner(t *testing.T) {
	k, _ := kernels.ByName("matmul")
	const n, pes = 16, 8
	prog := compile(t, k.File(), k.Source)
	wantVals, wantMasks := simArraysMasked(t, prog, pes, k.Arrays, k.Args(n)...)
	cfg := Config{PageElems: 32, CachePages: 4, Heat: true}
	ws, arrays := pumpedRun(t, k, n, pes, cfg, nil, nil)
	checkGathered(t, arrays, wantVals, wantMasks)
	var resident, full int
	for id, g := range arrays {
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
	t.Logf("matmul@%d cap=4 heat: %d resident cached pages, %d full", pes, resident, full)

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
	id := w.filledArray(t, 40).AsInt()
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
