package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
)

// The adapt layer (Config.Adapt): runtime-adaptive repartitioning of Range
// Filter bounds. A worker bills executed instructions to the (loop, sweep,
// iteration) that caused them, flushes the bills to the driver before every
// probe ack, installs the cut vectors the driver broadcasts, and stamps each
// PE's bounds onto the next SPAWND fan-out of the loop. The core calls in
// when a tagged SP runs (openSeg, billTo), when one spawns (inheritCost,
// mintSweep), on every probe (flushCosts) and for KRebound (rebound).

// adaptState is a worker's half of adaptive repartitioning, nil when
// Config.Adapt is off or the job has one PE.
type adaptState struct {
	// cuts holds the latest KRebound cut vector per distributed loop
	// template; a SPAWND fan-out of such a loop stamps each copy with its
	// PE's explicit bounds, so one spawner fixes one consistent partition
	// per sweep. costAcc accumulates executed-instruction counts per (loop,
	// sweep, iteration) between probe flushes; nextSweep numbers this
	// worker's fan-outs (packed with the PE index into a globally unique
	// sweep ID); cs is the cost segment of the run step is executing.
	cuts      map[int][]int64
	costAcc   map[costKey]int64
	nextSweep int64
	cs        costSeg
}

// costKey identifies one cost-accounting bucket: the Range-Filtered loop
// template, the SPAWND fan-out (sweep), and the iteration index.
type costKey struct {
	loop  int32
	sweep int64
	iter  int64
}

// costSeg is the cost attribution of one run segment: a tagged instance
// charges every completed instruction to its (loop, sweep, iteration)
// bucket. A distributed loop copy charges to the current value of its loop
// variable — the executor stops the run whenever an instruction writes it
// (Exec.Watch) — so its own control overhead lands on the iteration being
// driven; everything else carries the iteration frozen at spawn time.
// While a copy's loop variable holds no integer there is no iteration to
// bill.
type costSeg struct {
	iter  int64 // the iteration being billed
	bill  bool  // false while the loop variable holds no integer
	from  int64 // w.instrs when the stretch billed to iter began
	start int64 // w.instrs when the segment began
}

func newAdaptState() *adaptState {
	return &adaptState{cuts: make(map[int][]int64), costAcc: make(map[costKey]int64)}
}

// openSeg starts the cost segment of a tagged instance.
func (w *worker) openSeg(sp *spInst) {
	w.adapt.cs = costSeg{iter: sp.costIter, bill: true, from: w.instrs, start: w.instrs}
	if sp.tmpl.Distributed && sp.tmpl.Loop != nil {
		w.x.Watch = int32(sp.tmpl.Loop.VarSlot)
		w.readIter(sp)
	}
}

// readIter points the segment at the iteration in the loop variable.
func (w *worker) readIter(sp *spInst) {
	cs := &w.adapt.cs
	v := sp.frame[w.x.Watch]
	if cs.bill = v.Kind == isa.KindInt; cs.bill {
		cs.iter = v.I
	}
}

// billTo charges the instructions completed since the stretch began, up to
// the count upto, to the stretch's iteration, and starts the next stretch.
func (w *worker) billTo(sp *spInst, upto int64) {
	a := w.adapt
	if n := upto - a.cs.from; n > 0 && a.cs.bill {
		a.costAcc[costKey{loop: sp.costLoop, sweep: sp.costSweep, iter: a.cs.iter}] += n
	}
	a.cs.from = upto
}

// inheritCost tags a plain SPAWN's child with its tagged spawner's (loop,
// sweep) and the iteration the spawner was executing when it was created,
// so the child joins the spawner's cost subtree.
func (w *worker) inheritCost(sp, child *spInst) {
	iter := w.adapt.cs.iter
	if w.instrs == w.adapt.cs.start {
		iter = sp.costIter // the segment has not read its loop variable yet
	}
	child.costLoop, child.costSweep, child.costIter = sp.costLoop, sp.costSweep, iter
}

// mintSweep makes a distributed loop's fan-out a sweep boundary: this
// spawner mints the sweep ID the copies charge their costs to and stamps
// each copy with its PE's bounds from the latest rebound — one spawner,
// one consistent partition, no install race with a rebound broadcast in
// flight.
func (w *worker) mintSweep(loop int) (sweep int64, cuts []int64) {
	a := w.adapt
	a.nextSweep++
	return packJobID(w.job, w.pe, w.inc, a.nextSweep), a.cuts[loop]
}

// rebound installs a KRebound cut vector for its loop template.
func (w *worker) rebound(m *Msg) {
	a := w.adapt
	if a == nil {
		w.unexpected(m)
		return
	}
	cuts := m.Lists.Cuts
	if len(cuts) != w.n-1 {
		w.fail(fmt.Errorf("rebound for template %d with %d cuts, want %d", m.Tmpl, len(cuts), w.n-1))
		return
	}
	a.cuts[int(m.Tmpl)] = cuts
	w.rec(trace.EvRebound, int64(m.Tmpl), 0)
}

// flushCosts sends the accumulated cost buckets to the driver as one
// KCostReport per (loop, sweep) pair and clears them. It runs before the
// probe ack: per-sender FIFO then guarantees the driver has merged this
// worker's reports by the time it evaluates the round, so a rebind decision
// made at a round boundary never misses costs the round's acks imply.
// Buckets are flushed in sorted order so the report stream is deterministic
// for a given accumulation state.
func (w *worker) flushCosts() {
	acc := w.adapt.costAcc
	if len(acc) == 0 {
		return
	}
	keys := make([]costKey, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.loop != b.loop {
			return a.loop < b.loop
		}
		if a.sweep != b.sweep {
			return a.sweep < b.sweep
		}
		return a.iter < b.iter
	})
	var cur *Msg
	for _, k := range keys {
		if cur == nil || cur.Tmpl != k.loop || cur.Sweep != k.sweep {
			if cur != nil {
				w.send(w.driverID(), cur)
			}
			cur = &Msg{Kind: KCostReport, Tmpl: k.loop, Sweep: k.sweep, Lists: &MsgLists{}}
		}
		cur.Lists.Iters = append(cur.Lists.Iters, k.iter)
		cur.Lists.Costs = append(cur.Lists.Costs, acc[k])
	}
	w.send(w.driverID(), cur)
	clear(acc)
}

// cutBounds returns PE pe's index range under a rebound cut vector:
// (cuts[pe-1], cuts[pe]], with ∓inf at the two ends. Because the ranges
// tile all of ℤ, clamping them against the loop's real bounds partitions
// any iteration range exactly — a range that shifted or shrank since the
// costs were observed degrades balance, never correctness.
func cutBounds(cuts []int64, pe, n int) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if pe > 0 {
		lo = cuts[pe-1] + 1
	}
	if pe < n-1 {
		hi = cuts[pe]
	}
	return lo, hi
}

// The driver's half: the driver is the rebind coordinator. It merges the
// workers' KCostReports and, once a sweep's observations are complete
// enough to trust, asks the split planner for new cuts and broadcasts them
// (KRebound). All of this traffic is driver control-plane, so it is
// invisible to the four-counter termination sums, and the cuts reach the
// program only by being stamped onto a later SPAWND fan-out — there is no
// stop-the-world barrier to compose with stealing or termination probing.
//
// A sweep is considered finished when a newer sweep of the same loop has
// reported costs and one further complete probe round has passed. The
// first half is the real signal — an iterative kernel whose sweeps are
// serialized by a data dependence cannot start sweep k+1 until sweep k is
// done — and the extra round closes the straggler window: a worker that
// answered the round's probe before executing its last iterations flushes
// the remainder with its next ack, which the driver has merged by the time
// the following round completes (flushes precede acks on the same FIFO
// stream). Nothing cheaper is trustworthy: iteration *coverage* completes
// almost immediately after a fan-out (the loop copies charge every
// iteration while spawning its body SPs, long before the bodies run), so
// planning on coverage would balance spawn overhead, not work.
//
// The heuristic only gates *when* a rebind happens, never what it may
// break: stamped cut vectors tile all of ℤ, so any fan-out — before,
// after, or concurrent with a rebind — partitions its real index range
// exactly, and single-assignment semantics make the results identical no
// matter how the bounds moved.

// sweepCosts accumulates one (loop, sweep)'s observations.
type sweepCosts struct {
	iters      map[int64]int64
	min, max   int64
	firstRound int32 // probe round in which the sweep first reported
}

// loopCosts is the coordinator's per-loop state.
type loopCosts struct {
	sweeps map[int64]*sweepCosts
	order  []int64            // sweep IDs in first-report order
	done   map[int64]struct{} // planned sweeps; late reports are ignored
	cuts   []int64            // currently installed cuts (nil = static)
}

// rebind is one planned cut-vector broadcast.
type rebind struct {
	tmpl int32
	cuts []int64
}

// adaptCoord is the driver's rebind coordinator.
type adaptCoord struct {
	n        int
	loops    map[int32]*loopCosts
	rebounds int64
	retired  []int64 // sweeps retired since the last drainRetired
}

// adaptHysteresis is the minimum fractional predicted-makespan improvement
// a new cut vector must deliver before it is broadcast; smaller gains are
// churn, not balance.
const adaptHysteresis = 0.05

func newAdaptCoord(n int) *adaptCoord {
	return &adaptCoord{n: n, loops: make(map[int32]*loopCosts)}
}

// merge folds one KCostReport into the tables. round is the probe round
// currently being collected. It reports whether the message opened a new
// sweep — the driver's cue to re-tighten its probe cadence, since a sweep
// in flight means a rebind decision is coming up.
func (a *adaptCoord) merge(m *Msg, round int32) (newSweep bool) {
	if len(m.Lists.Iters) != len(m.Lists.Costs) {
		return false // malformed report; ignore rather than fail a healthy run
	}
	lc := a.loops[m.Tmpl]
	if lc == nil {
		lc = &loopCosts{sweeps: make(map[int64]*sweepCosts), done: make(map[int64]struct{})}
		a.loops[m.Tmpl] = lc
	}
	if _, planned := lc.done[m.Sweep]; planned {
		return false // straggler for a sweep already consumed by the planner
	}
	sc := lc.sweeps[m.Sweep]
	if sc == nil {
		sc = &sweepCosts{iters: make(map[int64]int64), firstRound: round}
		lc.sweeps[m.Sweep] = sc
		lc.order = append(lc.order, m.Sweep)
		newSweep = true
	}
	for i, iter := range m.Lists.Iters {
		if len(sc.iters) == 0 || iter < sc.min {
			sc.min = iter
		}
		if len(sc.iters) == 0 || iter > sc.max {
			sc.max = iter
		}
		sc.iters[iter] += m.Lists.Costs[i]
	}
	return newSweep
}

// tick runs the rebind policy at the end of complete probe round `round`
// and returns the cut broadcasts to send.
func (a *adaptCoord) tick(round int32) []rebind {
	var out []rebind
	for tmpl, lc := range a.loops {
		idx := -1 // newest finished sweep, as an index into lc.order
		for i := range lc.order {
			if i == len(lc.order)-1 {
				break // the newest sweep has no successor yet
			}
			// A newer sweep has reported: this one is done. Wait one
			// further complete round so workers that were still finishing
			// it when the newer sweep appeared have flushed the remainder.
			if round > lc.sweeps[lc.order[i+1]].firstRound {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		sc := lc.sweeps[lc.order[idx]]
		span := sc.max - sc.min + 1
		if span > maxPlanSpan {
			// A loop with an astronomically wide observed index range
			// would need an equally wide dense profile; leave it on its
			// static split rather than allocating one.
			a.retire(lc, idx)
			continue
		}
		costs := make([]int64, span)
		for iter, c := range sc.iters {
			costs[iter-sc.min] = c
		}
		cuts, changed := planCuts(sc.min, costs, a.n, lc.cuts, adaptHysteresis)
		if changed {
			lc.cuts = cuts
			a.rebounds++
			out = append(out, rebind{tmpl: tmpl, cuts: cuts})
		}
		// The planned sweep and everything older is consumed.
		a.retire(lc, idx)
	}
	return out
}

// maxPlanSpan bounds the dense cost profile the planner materializes.
const maxPlanSpan = 1 << 22

// retire drops sweeps order[0..idx] from the tables, remembering their IDs
// so stragglers cannot revive them. Retired IDs also accumulate for the
// driver's replay-log GC: a retired sweep is one whose successor has
// reported (plus a straggler round), the coordinator's strongest
// completion signal.
func (a *adaptCoord) retire(lc *loopCosts, idx int) {
	for _, id := range lc.order[:idx+1] {
		delete(lc.sweeps, id)
		lc.done[id] = struct{}{}
		a.retired = append(a.retired, id)
	}
	lc.order = append(lc.order[:0], lc.order[idx+1:]...)
}

// drainRetired hands the sweeps retired since the last call to the caller
// (the driver's checkpoint kickoff).
func (a *adaptCoord) drainRetired() []int64 {
	out := a.retired
	a.retired = nil
	return out
}
