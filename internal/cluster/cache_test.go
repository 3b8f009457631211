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
