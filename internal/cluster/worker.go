package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
	"repro/internal/rtcfg"
)

// The worker core: one PE's SP execution unit and Array Manager (§4,
// §5.1). It owns the run deque, the SP lifecycle, the executor binding
// (step, Effect), token delivery and routing, sends, the quiescence report
// and the message switch. The mechanisms layered on it — steal.go,
// adapt.go, heat.go — each keep their state in one struct hanging off the
// worker, nil exactly when the layer's knob is off, and the core calls them
// directly at a few named points.

// spInst is one live SP instance on a worker: template, operand frame,
// program counter, and the slot it is blocked on (isa.None while runnable).
// An absent frame slot holds the zero Value (isa.KindInvalid), so operand
// check and operand load read the same word. An instance normally belongs to the worker it was
// spawned on for life, matching the paper's model where an SP executes on
// the PE it was spawned on — with one exception: a not-yet-started
// instance (pc == 0) may be stolen by an idle peer, in which case the home
// worker keeps a forwarding stub so tokens addressed to the home ID still
// reach it.
type spInst struct {
	id      int64
	tmpl    *isa.Template
	frame   []isa.Value
	pc      int
	blocked int

	// stolen marks an instance installed here by a steal grant. Only such
	// instances can legally see tokens arrive after their HALT (the extra
	// relay hop through the home PE's forwarding stub is what lets a
	// token trail completion), so only they enter the halted set.
	stolen bool

	// The adapt layer's cost tag (Config.Adapt). costLoop/costSweep/costIter
	// name the (Range-Filtered loop template, SPAWND fan-out, iteration)
	// this instance's executed instructions are charged to; costLoop is
	// -1 for untagged instances. A distributed loop copy carries its own
	// template as costLoop and charges dynamically to the current value of
	// its loop variable; every SP it spawns inherits the (loop, sweep) tag
	// with the iteration frozen at spawn time, so a whole iteration's
	// subtree — wherever stealing moves it — bills the iteration that
	// caused it.
	costLoop  int32
	costSweep int64
	costIter  int64

	// traced is the tracing decision for this instance's dispatch/complete
	// events: 0 undecided (made at first dispatch by the recorder's
	// deterministic sampler), 1 record, -1 skip. Deciding once per instance
	// keeps dispatch/complete pairs exact under sampling.
	traced int8

	// rbOn/rb are explicit adaptive Range-Filter bounds [lo, hi] stamped on
	// a distributed copy at fan-out: when set, the copy's RF instructions
	// yield these instead of consulting array ownership or the uniform
	// split, clamped against the loop's real index range. The ends of the
	// cut vector stamp ±inf, so the per-PE ranges partition any actual
	// range exactly even if it shifted since the costs were observed.
	rbOn bool
	rb   [2]int64
}

// worker is one PE: its own I-structure shard, its own SP instances and run
// queue, and an endpoint. Everything here is confined to the worker's
// goroutine (or process); it talks only through its job endpoint.
type worker struct {
	pe   int
	n    int
	geo  rtcfg.Geometry
	prog *isa.Program
	ep   *jobEndpoint

	shard *istructure.Shard
	insts map[int64]*spInst

	// free is the SP-instance free list, indexed by frame length: HALT
	// returns an instance and its cleared frame, spawnLocal takes them
	// back. A frame has one owner at a time — a steal grant hands the
	// victim's frame to the thief and the victim drops the instance
	// unreleased — so only the worker that halts an SP ever lists it.
	free [][]*spInst

	// ready is a double-ended run queue in classic work-stealing
	// arrangement: the worker itself pushes and pops at the top (LIFO,
	// depth-first — it digs into the most recently spawned SP and its
	// children), while steal requests are served from the bottom, where
	// the oldest not-yet-started SPs sit. Depth-first local execution is
	// what keeps the bottom stealable: a breadth-first worker touches
	// every queued SP once during ramp-up, leaving only in-flight
	// instances that cannot migrate. Removal anywhere is O(1): bottom
	// removals advance readyHead over a dead prefix, mid-deque removals
	// leave nil tombstones (readyNil counts them) that the top pop skips,
	// and compactReady squeezes the dead entries out once they outnumber
	// the live ones — so neither the prefix nor the tombstones can grow
	// without bound on a long run whose queue never fully drains.
	ready     []*spInst
	readyHead int
	readyNil  int

	// waitArray holds SPs suspended mid-instruction on an array whose
	// header has not arrived yet (an alloc broadcast from another PE can
	// lose the race against a handle forwarded through a third PE).
	waitArray map[int64][]*spInst
	// pending holds frames parked for such arrays (see dispatch).
	pending map[int64][]*Msg

	nextSP  int64
	nextArr int64

	// sent/recv count worker-to-worker data messages for termination
	// detection (driver traffic is control-plane and excluded).
	sent, recv int64

	// instrs counts executed instructions (the per-PE load behind
	// Result.PEInstrs' makespan and utilization).
	instrs int64

	// inflight is the in-flight page table (istore.go): every remote page
	// with a request outstanding, and the reads that joined it. joins
	// counts those reads.
	inflight map[pageKey]pageReq
	joins    int64

	// x is the executor state, pointed at cur — the SP step last ran —
	// for each run.
	x   isa.Exec
	cur *spInst

	// job is the owning job's ID on a fleet (0 in direct single-run
	// harnesses); packed into every minted SP/array/sweep ID so two jobs'
	// object namespaces can never collide.
	job int32

	// The layers, each nil exactly when its knob is off (newWorker decides).
	steal *stealState // Config.Steal: steal.go
	adapt *adaptState // Config.Adapt: adapt.go
	heat  *heatState  // Config.Heat: heat.go

	// sliceSteps counts step() calls since the last cooperative yield.
	sliceSteps int

	// tr is the observability event recorder (Config.Trace); nil when
	// tracing is off, so every hook is a single nil check. pub remembers
	// the counter values already published to the process-wide expvar
	// metrics, so each probe ack publishes only the delta.
	tr  *trace.Recorder
	pub Counters

	// told is the termination state this worker last reported to the
	// driver, in a probe ack or an idle push. newWorker starts it at a state
	// no worker is in, so the first idle spell reports.
	told quietState

	failed  bool // reported a KFail or a KLost: runs no more SPs
	stopped bool
}

// rec records one trace event when tracing is on. The worker's instruction
// counter is the event's deterministic timestamp.
func (w *worker) rec(k trace.Kind, arg0, arg1 int64) {
	if w.tr != nil {
		w.tr.Record(k, w.instrs, arg0, arg1)
	}
}

// qdepth reports the live ready-queue depth (tombstones excluded).
func (w *worker) qdepth() int64 {
	return int64(len(w.ready) - w.readyHead - w.readyNil)
}

// newWorker builds PE pe of a job from its filled Config, with the steal,
// adapt and heat layers its knobs ask for.
func newWorker(pe int, cfg *Config, prog *isa.Program, ep *jobEndpoint) *worker {
	n := cfg.NumPEs
	w := &worker{
		pe:        pe,
		n:         n,
		geo:       rtcfg.Geometry{PEs: n, PageElems: cfg.PageElems},
		prog:      prog,
		ep:        ep,
		shard:     istructure.NewShard(pe),
		insts:     make(map[int64]*spInst),
		waitArray: make(map[int64][]*spInst),
		pending:   make(map[int64][]*Msg),
		inflight:  make(map[pageKey]pageReq),
		told:      quietState{live: -1},
	}
	w.x.Backend = w
	w.shard.CacheCap = cfg.CachePages
	if cfg.Steal && n > 1 {
		w.steal = &stealState{forwards: make(map[int64]int), halted: make(map[int64]struct{}),
			victim: pe} // first attempt targets (pe+1) mod n
	}
	if cfg.Adapt && n > 1 {
		w.adapt = newAdaptState()
	}
	if cfg.Heat {
		w.heat = &heatState{arrived: make(map[pageKey]struct{}), gov: newCapGovernor(cfg.CachePages)}
	}
	if cfg.Trace {
		w.tr = trace.New(cfg.TraceCap, cfg.TraceSample)
		// The shard's eviction point is the one place a cached page dies;
		// hooking it there catches both InstallPage paths.
		w.shard.OnEvict = func(arr int64, page int) {
			w.tr.Record(trace.EvPageEvict, w.instrs, arr, int64(page))
		}
	}
	return w
}

// driverID is the endpoint index of the driver for this worker's cluster.
func (w *worker) driverID() int { return w.n }

// send transmits m to endpoint `to`, counting worker-to-worker data traffic.
func (w *worker) send(to int, m *Msg) {
	if to != w.driverID() && m.Kind.isData() {
		w.sent++
	}
	if err := w.ep.Send(to, m); err != nil {
		if errors.Is(err, ErrClosed) {
			// This worker's own endpoint is gone — the fault injector fired
			// or the run is shutting down. The "machine" is off: go silent.
			w.stopped = true
			return
		}
		if to < 0 || to >= w.n {
			w.fail(err) // the driver, or no endpoint at all
			return
		}
		// The peer is dead. The frame is dropped, and the first such peer
		// reported to the driver, which re-runs the job: this run is over,
		// as if the worker had failed. The sent count stays in place, so a
		// lost frame can never fake termination.
		if !w.failed {
			w.failed = true
			_ = w.ep.Send(w.driverID(), &Msg{Kind: KLost, ReqPE: int32(to), Name: err.Error()})
		}
	}
}

// fail reports the first fatal error to the driver and stops executing SPs.
// The worker keeps serving control messages until the driver says stop.
func (w *worker) fail(err error) {
	if w.failed {
		return
	}
	w.failed = true
	_ = w.ep.Send(w.driverID(), &Msg{Kind: KFail, Name: fmt.Sprintf("pe %d: %v", w.pe, err)})
}

// unexpected fails the run on a frame this worker has no use for: a kind
// no worker handles, or one that belongs to a layer this job left off.
func (w *worker) unexpected(m *Msg) {
	w.fail(fmt.Errorf("unexpected %s message", m.Kind))
}

// enqueue appends an SP to the ready queue. Arriving work also resets the
// steal backoff: the worker is demonstrably not starving, so the next idle
// spell starts probing victims from scratch.
func (w *worker) enqueue(sp *spInst) {
	w.compactReady()
	w.ready = append(w.ready, sp)
	if s := w.steal; s != nil {
		s.fails, s.wait = 0, 0
	}
}

// compactReady reclaims the deque's dead entries — the nil prefix left by
// bottom removals plus the mid-deque tombstones — once they outnumber the
// live entries. Amortized O(1): each compaction moves at most as many live
// entries as dead ones were reclaimed.
func (w *worker) compactReady() {
	dead := w.readyHead + w.readyNil
	if dead == 0 || dead*2 <= len(w.ready) {
		return
	}
	live := w.ready[:0]
	for _, sp := range w.ready[w.readyHead:] {
		if sp != nil {
			live = append(live, sp)
		}
	}
	clear(w.ready[len(live):])
	w.ready = live
	w.readyHead, w.readyNil = 0, 0
}

// takeReady removes the deque entries at the indices idx and returns them
// in that order. It never shifts the deque: each becomes a nil tombstone,
// tombstones at the bottom become dead prefix, and compactReady reclaims
// them.
func (w *worker) takeReady(idx []int) []*spInst {
	out := make([]*spInst, len(idx))
	for i, j := range idx {
		out[i], w.ready[j] = w.ready[j], nil
	}
	w.readyNil += len(idx)
	for w.readyHead < len(w.ready) && w.ready[w.readyHead] == nil {
		w.readyHead++
		w.readyNil--
	}
	w.compactReady()
	return out
}

// quietState is what termination detection needs to know of a worker: the
// four-counter halves and the live SP count.
type quietState struct{ sent, recv, live int64 }

func (w *worker) quiet() quietState {
	return quietState{w.sent, w.recv, int64(len(w.insts))}
}

// counters snapshots this worker's Counters: the core's and its shard's,
// plus those of each layer it runs.
func (w *worker) counters() Counters {
	c := Counters{
		MsgsSent:      w.sent,
		MsgsRecv:      w.recv,
		DeferredReads: w.shard.DeferredReads,
		CacheHits:     w.shard.CacheHits,
		CacheMisses:   w.shard.CacheMisses,
		ReadJoins:     w.joins,
		Instrs:        w.instrs,
		Evictions:     w.shard.Evictions,
		Refetches:     w.shard.Refetches,
		CacheCapNow:   int64(w.shard.CacheCap),
	}
	if s := w.steal; s != nil {
		c.Steals, c.Forwards = s.steals, s.forwarded
	}
	if h := w.heat; h != nil {
		c.Prefetches, c.PrefetchHits = h.prefetches, h.prefetchHits
	}
	return c
}

// report sends the driver this worker's counters: the ack of probe round
// `round`, or (round 0) the unsolicited report of an idle state. told
// remembers the state sent, so the run loop pushes only news. Probe acks
// also publish the counters' growth to the process-wide metrics.
func (w *worker) report(round int32) {
	w.told = w.quiet()
	a := &AckStats{Live: w.told.live, QDepth: w.qdepth(), Counters: w.counters()}
	if round != 0 {
		w.publishMetrics(&a.Counters)
	}
	w.send(w.driverID(), &Msg{Kind: KAck, Round: round, Ack: a})
}

// run is the worker main loop: drain the mailbox, then execute ready SPs;
// block on the endpoint when there is nothing to do — after first trying
// to steal work from a peer if stealing is enabled.
func (w *worker) run(ctx context.Context) {
	for !w.stopped {
		for {
			m, ok := w.ep.in.tryRecv()
			if !ok {
				break
			}
			w.handle(m)
			if w.stopped {
				return
			}
		}
		if w.failed || w.readyHead == len(w.ready) {
			// About to block with nothing live: tell the driver, unless it
			// already knows this exact state. A PE suspended on a remote
			// read, or bouncing between probes and steal refusals, stays
			// silent.
			if len(w.insts) == 0 && !w.failed && w.quiet() != w.told {
				w.report(0)
			}
			w.maybeSteal()
			m, err := w.ep.in.recv(ctx)
			if err != nil {
				return
			}
			w.handle(m)
			continue
		}
		w.step()
		// Yield to the Go scheduler periodically. On a host with fewer
		// cores than PEs a compute-bound worker would otherwise hold its
		// core for a whole preemption quantum (~10ms), serializing the
		// "parallel" PEs into long bursts and stretching a steal
		// request/grant round trip to multiple quanta. A cooperative
		// yield every few steps keeps the PEs finely interleaved — much
		// closer to the paper's independent-processor model — for ~100ns
		// every couple thousand instructions. With idle cores available
		// the yield is a no-op.
		w.sliceSteps++
		if w.sliceSteps >= yieldEvery {
			w.sliceSteps = 0
			runtime.Gosched()
		}
	}
}

// yieldEvery is the number of step() calls between cooperative yields.
const yieldEvery = 64

// handle takes one incoming frame: the termination count, then dispatch.
func (w *worker) handle(m *Msg) {
	if m.Kind.isData() && int(m.From) != w.driverID() {
		w.recv++
	}
	w.dispatch(m)
}

// dispatch acts on one admitted frame. A frame addressed to an array whose
// header has not arrived yet is parked first, and installArray dispatches
// it again once the header lands.
func (w *worker) dispatch(m *Msg) {
	var a *istructure.Array
	switch m.Kind {
	case KReadReq, KWrite, KDumpReq:
		if a = w.shard.Array(m.Arr); a == nil {
			w.pending[m.Arr] = append(w.pending[m.Arr], m)
			return
		}
	}
	switch m.Kind {
	case KSpawn:
		w.spawnCopy(m)

	case KToken:
		w.deliver(m.SP, int(m.Slot), m.Val)

	case KAlloc:
		if h, err := allocHeader(m, w.geo.PageElems, w.n); err != nil {
			w.fail(err)
		} else {
			w.installArray(h)
		}

	case KReadReq:
		w.handleReadReq(a, m)

	case KPage:
		w.handlePage(m)

	case KWrite:
		w.handleWrite(a, m)

	case KProbe:
		// The layers' per-round duties ride the probe, ahead of the ack:
		// steal revival, the adapt cost flush and the heat cap governor.
		if w.steal != nil {
			w.stealProbe()
		}
		if w.adapt != nil {
			w.flushCosts()
		}
		if w.heat != nil {
			w.capTick()
		}
		w.rec(trace.EvProbe, int64(m.Round), w.qdepth())
		w.report(m.Round)

	case KStealReq, KStealGrant, KStealNone:
		w.stealMsg(m)

	case KRebound:
		w.rebound(m)

	case KTraceReq:
		// Flush the trace ring to the driver. A worker without a recorder
		// answers with an empty frame so the driver's gather never waits on
		// a PE that has nothing to say.
		ans := &MsgLists{}
		if w.tr != nil {
			ans.TraceEvs = w.tr.Flatten()
			ans.TraceDrops = w.tr.Drops()
		}
		w.send(w.driverID(), &Msg{Kind: KTrace, Lists: ans})

	case KDumpReq:
		w.handleDumpReq(a, m)

	case KFail:
		// A peer's transport pump reported a decode/socket error.
		w.fail(errors.New(m.Name))

	case KStop:
		w.stopped = true

	default:
		w.unexpected(m)
	}
}

// spawnLocal creates a live SP instance of tmpl on this worker for a spawn
// of nargs arguments and returns it with an all-absent frame (from the free
// list when it has one that size), so the caller can fill in the parameters
// and tag it (cost attribution, stamped bounds) before it first runs; nil
// on failure.
func (w *worker) spawnLocal(tmpl *isa.Template, nargs int) *spInst {
	if nargs != tmpl.NParams {
		w.fail(fmt.Errorf("%q spawned with %d args, want %d", tmpl.Name, nargs, tmpl.NParams))
		return nil
	}
	var sp *spInst
	if n := tmpl.NSlots; n < len(w.free) && len(w.free[n]) > 0 {
		l := w.free[n]
		sp, w.free[n] = l[len(l)-1], l[:len(l)-1]
	} else {
		sp = &spInst{frame: make([]isa.Value, n)}
	}
	w.nextSP++
	sp.id = packJobID(w.job, w.pe, w.nextSP)
	sp.tmpl = tmpl
	sp.blocked = isa.None
	sp.costLoop = -1
	w.insts[sp.id] = sp
	w.enqueue(sp)
	return sp
}

// instantiate is spawnLocal for arguments that arrive as values.
func (w *worker) instantiate(tmpl *isa.Template, args []isa.Value) *spInst {
	sp := w.spawnLocal(tmpl, len(args))
	if sp != nil {
		copy(sp.frame, args)
	}
	return sp
}

// spawnCopy instantiates a KSpawn: the entry spawn, or one PE's copy of a
// fan-out (arrived, or this spawner's own). A copy of a sweep
// charges its subtree to the sweep and, when stamped, overrides its Range
// Filter with the bounds the spawner computed for this PE.
func (w *worker) spawnCopy(m *Msg) {
	tmpl := w.prog.Template(int(m.Tmpl))
	if tmpl == nil {
		w.fail(fmt.Errorf("spawn of unknown template %d", m.Tmpl))
		return
	}
	sp := w.instantiate(tmpl, m.Args)
	if sp != nil && m.Sweep != 0 && w.adapt != nil {
		sp.costLoop, sp.costSweep = m.Tmpl, m.Sweep
		if m.RngOn {
			sp.rbOn, sp.rb = true, [2]int64{m.RngLo, m.RngHi}
		}
	}
}

// release returns a halted instance and its frame to the free list; by
// then nothing references it (it has left insts, and a running SP is in
// neither the ready deque nor waitArray).
func (w *worker) release(sp *spInst) {
	f := sp.frame
	clear(f)
	*sp = spInst{frame: f}
	for len(f) >= len(w.free) {
		w.free = append(w.free, nil)
	}
	w.free[len(f)] = append(w.free[len(f)], sp)
}

// deliver places a token into a local SP's frame, waking it if it was
// blocked on that slot. A token for an SP this worker no longer holds goes
// to the steal layer (relay: a forwarding stub, or a stolen SP that halted
// here); a token for an ID this worker has never seen fails the run.
func (w *worker) deliver(id int64, slot int, v isa.Value) {
	sp := w.insts[id]
	if sp == nil {
		if w.steal == nil || !w.relay(id, slot, v) {
			w.fail(fmt.Errorf("token for dead SP %d", id))
		}
		return
	}
	if slot < 0 || slot >= len(sp.frame) {
		w.fail(fmt.Errorf("token slot %d out of range for SP %q", slot, sp.tmpl.Name))
		return
	}
	sp.frame[slot] = v
	if sp.blocked == slot {
		sp.blocked = isa.None
		w.enqueue(sp)
	}
}

// route delivers a token to an SP instance anywhere in the cluster:
// locally (including SPs stolen from another PE's queue, which keep their
// home ID), to the owning worker, or to the driver environment (ID 0). A
// remote ID this worker migrated (stolen in and away again, or stolen in
// and halted) skips the round trip through its home PE's stub.
func (w *worker) route(id int64, slot int, v isa.Value) {
	switch pe := peOf(id); {
	case pe == w.pe || w.insts[id] != nil:
		w.deliver(id, slot, v)
	case pe < 0: // driver environment
		w.send(w.driverID(), &Msg{Kind: KToken, SP: 0, Slot: int32(slot), Val: v})
	case pe < w.n:
		if w.steal == nil || !w.relay(id, slot, v) {
			w.send(pe, &Msg{Kind: KToken, SP: id, Slot: int32(slot), Val: v})
		}
	default:
		w.fail(fmt.Errorf("token for SP %d on unknown PE %d", id, pe))
	}
}

// array resolves the array handle in a frame slot (the executor checked its
// kind) to the shard's per-array handle — the one lookup an access pays. When
// the alloc broadcast has not arrived yet it parks the SP until
// installArray wakes it and returns nil: the caller suspends, so the
// instruction re-executes on wake.
func (w *worker) array(sp *spInst, slot int32) *istructure.Array {
	id := sp.frame[slot].I
	a := w.shard.Array(id)
	if a == nil {
		w.waitArray[id] = append(w.waitArray[id], sp)
	}
	return a
}

// step runs one ready SP on the shared executor (isa.Run) until it halts,
// blocks on an absent operand, or suspends on a missing array header. It
// pops from the top of the deque (the most recently pushed SP): depth-first
// execution follows each spawn chain down before touching older siblings,
// which both bounds the live frontier and keeps untouched SPs at the bottom
// for thieves. An instruction counts (and bills) only once it completes: a
// block or a suspension leaves pc where it was, so the instruction
// re-executes on wake without counting twice.
func (w *worker) step() {
	// The shard's heat table stamps last-touch times with this worker's
	// instruction counter — deterministic per PE, monotone per step.
	w.shard.Now = w.instrs
	var sp *spInst
	for sp == nil && w.readyHead < len(w.ready) {
		sp = w.ready[len(w.ready)-1]
		w.ready[len(w.ready)-1] = nil
		w.ready = w.ready[:len(w.ready)-1]
		if sp == nil {
			w.readyNil--
		}
	}
	if w.readyHead == len(w.ready) {
		// Only dead entries are left: the deque is truly empty.
		w.ready = w.ready[:0]
		w.readyHead, w.readyNil = 0, 0
	}
	if sp == nil {
		return
	}

	// Tracing: the sampling decision is made once per instance at its first
	// dispatch, so a sampled instance contributes every dispatch/complete
	// pair and an unsampled one contributes nothing — exact pairing at any
	// sampling rate. A resumed instance records a fresh dispatch; the
	// exporter pairs the completion with the last one (the final run
	// segment) and keeps earlier segments as instants.
	if w.tr != nil {
		if sp.traced == 0 {
			sp.traced = -1
			if w.tr.SampleSP() {
				sp.traced = 1
			}
		}
		if sp.traced == 1 {
			w.tr.Record(trace.EvSPDispatch, w.instrs, sp.id, int64(sp.tmpl.ID))
		}
	}
	if w.failed || w.stopped {
		return
	}

	x := &w.x
	x.Decoded, x.F, x.PC, x.Self, x.N, x.Watch = sp.tmpl.Decoded(), sp.frame, sp.pc, sp.id, w.instrs, isa.None
	w.cur = sp
	// A cost tag exists only with the adapt layer on (spawnCopy, adopt).
	track := sp.costLoop >= 0
	if track {
		w.openSeg(sp)
	}
	st := isa.Run(x)
	for st == isa.Watched {
		// The instruction that just completed wrote the loop variable: it
		// and what follows bill the new iteration.
		w.billTo(sp, x.N-1)
		w.readIter(sp)
		st = isa.Run(x)
	}
	sp.pc, w.instrs = x.PC, x.N
	if track {
		w.billTo(sp, x.N)
	}
	switch st {
	case isa.Block:
		sp.blocked = x.Blocked
	case isa.Fault:
		w.fail(fmt.Errorf("%q %w", sp.tmpl.Name, x.Err))
	case isa.Halt:
		if sp.traced == 1 {
			w.tr.Record(trace.EvSPComplete, w.instrs, sp.id, int64(sp.tmpl.ID))
		}
		delete(w.insts, sp.id)
		if sp.stolen {
			w.steal.halted[sp.id] = struct{}{}
		}
		w.release(sp)
	}
}

// Effect performs one effect-class instruction of w.cur for the executor.
// Only effects can send or fail, so only they re-check the worker's
// failed/stopped state.
func (w *worker) Effect(x *isa.Exec, ins *isa.DInstr) isa.Step {
	sp := w.cur
	w.instrs = x.N // the trace clock reads the count so far
	st := isa.Next
	switch ins.Op {
	case isa.ALLOC, isa.ALLOCD:
		w.execAlloc(sp, ins, x.Args(ins), sp.tmpl.Code[x.PC].Comment)
	case isa.AREAD:
		st = w.execRead(sp, ins, x.Args(ins))
	case isa.AWRITE:
		st = w.execWrite(sp, ins, x.Args(ins))
	case isa.ROWLO, isa.ROWHI, isa.COLLO, isa.COLHI, isa.UNIFLO, isa.UNIFHI:
		st = w.execFilter(sp, ins)
	case isa.SPAWN, isa.SPAWND:
		w.execSpawn(sp, ins, x.Args(ins))
	case isa.SEND:
		slot := ins.Imm.I
		if args := x.Args(ins); len(args) > 0 {
			slot += sp.frame[args[0]].AsInt()
		}
		w.route(sp.frame[ins.A].I, int(slot), sp.frame[ins.B])
	}
	if w.failed || w.stopped {
		return isa.Suspend
	}
	return st
}

// execFilter implements the Range-Filter queries (istructure.RangeFilter).
// Stamped adaptive bounds override the ownership rule: the filter's MAX/MIN
// clamps against the loop's real init/limit still apply, so a ±inf end
// stamp degenerates to "no bound".
func (w *worker) execFilter(sp *spInst, ins *isa.DInstr) isa.Step {
	var stamp *[2]int64
	var h *istructure.Header
	switch {
	case sp.rbOn:
		stamp = &sp.rb
	case ins.Op != isa.UNIFLO && ins.Op != isa.UNIFHI:
		a := w.array(sp, ins.A)
		if a == nil {
			return isa.Suspend
		}
		h = a.Header()
	}
	sp.frame[ins.Dst] = isa.Int(istructure.RangeFilter(ins, sp.frame, h, w.pe, w.n, stamp))
	return isa.Next
}

// execSpawn implements SPAWN (the L operator: a child on this PE) and
// SPAWND (the distributing L: one copy per PE). args are the frame slots
// whose values become the child's parameters.
func (w *worker) execSpawn(sp *spInst, ins *isa.DInstr, args []int) {
	f := sp.frame
	child := w.prog.Templates[ins.Imm.I] // Validate checked the ID
	if ins.Op == isa.SPAWN {
		// A plain spawn stays local and joins the spawner's cost subtree.
		// The arguments go straight from frame to frame.
		csp := w.spawnLocal(child, len(args))
		if csp == nil {
			return
		}
		for i, s := range args {
			csp.frame[i] = f[s]
		}
		if sp.costLoop >= 0 {
			w.inheritCost(sp, csp)
		}
		return
	}
	// Every copy, this PE's included, is built from one fan-out record:
	// under adaptive repartitioning a Range-Filtered loop's fan-out is a
	// sweep boundary (mintSweep).
	fo := fanout{tmpl: int32(child.ID), args: make([]isa.Value, len(args))}
	for i, s := range args {
		fo.args[i] = f[s]
	}
	if w.adapt != nil && child.Distributed {
		fo.sweep, fo.cuts = w.mintSweep(child.ID)
	}
	for pe := 0; pe < w.n; pe++ {
		if m := fo.spawnMsg(pe, w.n); pe == w.pe {
			w.spawnCopy(m)
		} else {
			w.send(pe, m)
		}
	}
}

// fanout is one SPAWND fan-out: the template and arguments every PE's copy
// gets, plus, under adaptive repartitioning, the sweep it opens and the cut
// vector that stamps each copy's bounds (replaced wholesale by rebinds,
// never mutated).
type fanout struct {
	tmpl  int32
	args  []isa.Value
	sweep int64
	cuts  []int64
}

// spawnMsg builds PE pe's KSpawn of the fan-out, stamped with the sweep and,
// under a rebound, pe's bounds. Every call returns a fresh message with its
// own arguments: a sent Msg is receiver-owned.
func (f *fanout) spawnMsg(pe, n int) *Msg {
	m := &Msg{Kind: KSpawn, Tmpl: f.tmpl, Sweep: f.sweep, Args: append([]isa.Value(nil), f.args...)}
	if f.cuts != nil {
		m.RngOn = true
		m.RngLo, m.RngHi = cutBounds(f.cuts, pe, n)
	}
	return m
}
