package cluster

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
)

// Stats aggregates cluster-wide dynamic counts: the workers' Counters
// summed over their final probe answers, and the driver's own counts. All
// but Recoveries describe the job's last run, the one that finished.
type Stats struct {
	Counters
	Rebounds   int64 // adaptive Range-Filter cut broadcasts (Config.Adapt)
	Recoveries int64 // times the job was re-run after losing a worker
}

// PEStat is one worker's counter breakdown from its final probe answer —
// the per-PE decomposition of the cluster-wide Stats sums.
type PEStat struct {
	PE int
	Counters
}

// gathered is one assembled array after a run.
type gathered struct {
	h    *istructure.Header
	vals []float64
	mask []bool
}

// mergeDump folds a KDump segment into an assembled array's values and
// mask: a worker's on the driver, or the job server's on a submitting
// client. The offsets come off the wire, so they are validated against the
// assembled size — a corrupt or duplicated dump must fail the run, not
// panic the receiver.
func mergeDump(name string, vals []float64, mask []bool, m *Msg) error {
	base := int(m.Off)
	if base < 0 || len(m.Vals) != len(m.Set) || base > len(vals)-len(m.Vals) {
		return fmt.Errorf("cluster: dump segment [%d,%d) with %d presence bits does not fit array %q (%d elements)",
			base, base+len(m.Vals), len(m.Set), name, len(vals))
	}
	for i, v := range m.Vals {
		if m.Set[i] {
			vals[base+i] = v.AsFloat()
			mask[base+i] = true
		}
	}
	return nil
}

// Result is a completed cluster run: the program's returned value (if any),
// aggregate statistics, and the gathered I-structure contents.
type Result struct {
	// Value is the entry block's returned value (nil for void main).
	Value *isa.Value

	// Stats holds cluster-wide dynamic counts.
	Stats Stats

	// NumPEs is the effective worker count after defaults were applied
	// (cfg.NumPEs may be zero on entry).
	NumPEs int

	// PEInstrs is each worker's executed-instruction count — the per-PE
	// load distribution, whose max is the run's makespan and whose mean
	// over max its utilization.
	PEInstrs []int64

	// PEStats is each worker's full counter breakdown (the per-PE
	// decomposition of Stats).
	PEStats []PEStat

	// Trace holds the run's observability data when Config.Trace was set:
	// every PE's gathered event ring plus the per-probe-round metrics
	// timeline. Nil when tracing was off.
	Trace *trace.Trace

	arrays  map[int64]*gathered
	byName  map[string]int64
	nameSeq []string
}

// ReadArray gathers a named array's contents: values, a written-mask, and
// the array dimensions.
func (r *Result) ReadArray(name string) (vals []float64, mask []bool, dims []int, err error) {
	id, ok := r.byName[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("cluster: unknown array %q", name)
	}
	g := r.arrays[id]
	return g.vals, g.mask, append([]int(nil), g.h.Dims...), nil
}

// ArrayNames lists allocated source-level array names in arrival order.
func (r *Result) ArrayNames() []string { return append([]string(nil), r.nameSeq...) }

// Execute runs a validated program on the cluster runtime. With
// cfg.Workers empty it spins up cfg.NumPEs in-process workers over the
// channel transport; otherwise it drives the listed TCP workers. The
// context bounds the run; a blocked dataflow program (deadlock) is reported
// when it expires.
func Execute(ctx context.Context, prog *isa.Program, cfg Config, args ...isa.Value) (*Result, error) {
	f, err := OpenFleet(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Submit(ctx, prog, cfg, args...)
}

// deathError ends a run that lost a worker: Submit answers it by running
// the job again. unreachable names the PE a driver send failed on or a
// worker reported lost, or is -1 (a KDown notice, which the fleet has
// already recorded); err says what happened.
type deathError struct {
	unreachable int
	err         error
}

func (e *deathError) Error() string { return e.err.Error() }

// drive is the driver loop: spawn the entry SP on PE 0, then alternate
// between handling worker messages and termination probes; on termination,
// gather every array and stop the workers. A worker death returns a
// *deathError; a stalled round or gather names no dead PE and is a plain
// error.
func drive(ctx context.Context, ep *jobEndpoint, cfg Config, entry *isa.Template, args []isa.Value) (*Result, error) {
	n := cfg.NumPEs
	res := &Result{
		NumPEs: n,
		arrays: make(map[int64]*gathered),
		byName: make(map[string]int64),
	}
	det := newDetector(n)
	ad := newAdaptCoord(n)

	// Per-job budgets (admission control): MaxElems is enforced exactly at
	// each KAlloc broadcast (the driver sees every allocation before any
	// element is written); MaxInstrs is enforced at each completed probe
	// round from the workers' acked instruction counters — round-lagged,
	// but a job can only overshoot by one round's worth of work.
	var allocElems int64

	// Observability (Config.Trace): the timeline builder turns each
	// completed probe round's acks into one delta-encoded sample per PE;
	// prevAcks holds the previous completed round's counters the deltas are
	// taken against.
	var tb *trace.TimelineBuilder
	var prevAcks []AckStats
	driverStart := time.Now()
	if cfg.Trace {
		tb = trace.NewTimelineBuilder(timelineCap)
		prevAcks = make([]AckStats, n)
	}
	sampleTimeline := func(round int32) {
		if tb == nil {
			return
		}
		wall := int64(time.Since(driverStart))
		for pe := 0; pe < n; pe++ {
			a, p := det.acks[pe], prevAcks[pe]
			tb.Add(trace.Sample{
				Round: int(round), Wall: wall, PE: pe,
				Instrs: a.Instrs - p.Instrs, QDepth: a.QDepth, Live: a.Live,
				Sent: a.MsgsSent - p.MsgsSent, Hits: a.CacheHits - p.CacheHits,
				Misses: a.CacheMisses - p.CacheMisses, Evicts: a.Evictions - p.Evictions,
				Steals: a.Steals - p.Steals,
			})
			prevAcks[pe] = a
		}
	}
	defer func() {
		for pe := 0; pe < n; pe++ {
			_ = ep.Send(pe, &Msg{Kind: KStop})
		}
	}()
	cancelled := func(err error) error {
		return fmt.Errorf("cluster: run cancelled (deadlocked dataflow program? %d live SPs): %w", det.liveSPs(), err)
	}
	// send is ep.Send for a frame the run cannot do without: a send
	// bouncing off a dead connection is a death notice in its own right.
	send := func(pe int, m *Msg) error {
		if err := ep.Send(pe, m); err != nil {
			return &deathError{pe, err}
		}
		return nil
	}
	toAll := func(mk func() *Msg) error {
		for pe := 0; pe < n; pe++ {
			if err := send(pe, mk()); err != nil {
				return err
			}
		}
		return nil
	}
	// The driver's one timer: every bounded wait below re-arms it.
	timer := time.NewTimer(cfg.ProbeInterval)
	defer timer.Stop()

	if err := send(0, &Msg{Kind: KSpawn, Tmpl: int32(entry.ID), Args: args}); err != nil {
		return nil, err
	}

	round := int32(0)
	roundComplete := false
	probeReset := false
	// handle processes one driver-bound message; it returns an error for
	// KFail, KDown and KLost and flags round completion for KAck.
	handle := func(m *Msg) error {
		switch m.Kind {
		case KToken:
			val := m.Val
			res.Value = &val
		case KAlloc:
			if res.arrays[m.Arr] != nil {
				return fmt.Errorf("cluster: array %d allocated twice", m.Arr)
			}
			h, err := allocHeader(m, cfg.PageElems, n)
			if err != nil {
				return err
			}
			allocElems += int64(h.Elems())
			if cfg.MaxElems > 0 && allocElems > cfg.MaxElems {
				return fmt.Errorf("cluster: job exceeded its element budget: %d elements allocated, budget %d (Config.MaxElems)",
					allocElems, cfg.MaxElems)
			}
			res.arrays[m.Arr] = &gathered{h: h, vals: make([]float64, h.Elems()), mask: make([]bool, h.Elems())}
			if _, seen := res.byName[h.Name]; !seen {
				res.nameSeq = append(res.nameSeq, h.Name)
			}
			res.byName[h.Name] = m.Arr
		case KFail:
			return fmt.Errorf("cluster: %s", m.Name)
		case KAck:
			// The detector ignores stale-round and duplicate acks itself.
			if det.record(int(m.From), m) {
				roundComplete = true
			}
		case KCostReport:
			if ad.merge(m, round) {
				probeReset = true
			}
		case KDown:
			return &deathError{-1, fmt.Errorf("cluster: worker %d died (transport closed)", m.From)}
		case KLost:
			// A worker could not reach a peer: that peer is as dead as one
			// a driver send bounced off.
			if m.ReqPE < 0 || int(m.ReqPE) >= n {
				return fmt.Errorf("cluster: worker %d reported unknown pe %d lost", m.From, m.ReqPE)
			}
			return &deathError{int(m.ReqPE), fmt.Errorf("cluster: worker %d cannot reach pe %d: %s", m.From, m.ReqPE, m.Name)}
		case KDump:
			g := res.arrays[m.Arr]
			if g == nil {
				return fmt.Errorf("cluster: dump for unknown array %d", m.Arr)
			}
			return mergeDump(g.h.Name, g.vals, g.mask, m)
		default:
			return fmt.Errorf("cluster: driver got unexpected %s message", m.Kind)
		}
		return nil
	}

	// Probe rounds with geometric back-off: tight while the run is short,
	// cheap while it is long. The cadence is for what rides it mid-run (the
	// layers' probe duties, rebinds, budget and stall checks); detection
	// does not wait for it — the moment the latest reports look terminated
	// the next round starts at once (see the inter-round wait). The
	// back-off resets whenever a new sweep starts reporting costs: a rebind
	// decision is then imminent and must not wait tens of sweep-lengths,
	// while a run whose sweeps have stopped arriving (or that never rebinds
	// at all) pays no lasting probe overhead.
	interval := cfg.ProbeInterval
	maxInterval := 50 * cfg.ProbeInterval
	for {
		round++
		roundComplete = false
		det.begin(round)
		if err := toAll(func() *Msg { return &Msg{Kind: KProbe, Round: round} }); err != nil {
			return nil, err
		}
		// The round deadline turns a wedged worker into a diagnosable
		// failure. The deadline re-arms on every received message, so it
		// measures genuine silence — no driver-bound traffic at all for the
		// whole timeout while the round stays open, meaning some PE will
		// never answer — and can never trip a slow-but-progressing phase.
		// Expiry fails the run with each PE's last-ack state instead of
		// hanging until the run context expires. A stall names no dead PE,
		// so a re-run would start on the same hosts and stall again: it is
		// not a death.
		for !roundComplete {
			m, stalled, err := recvWithin(ctx, ep, timer, cfg.RoundTimeout)
			switch {
			case err == nil:
				if err := handle(m); err != nil {
					return nil, err
				}
			case stalled:
				// With tracing on, pull each PE's last trace events
				// before tearing the cluster down: a wedged-but-alive
				// worker still answers KTraceReq from its message loop,
				// and the event tail says what it was doing when the
				// round stalled — far more than last-ack counters can.
				diag := ""
				if cfg.Trace {
					diag = stallTraceDump(ctx, ep, timer, n)
				}
				return nil, fmt.Errorf("cluster: probe round %d stalled for %v (worker dead or wedged?): %s%s",
					round, cfg.RoundTimeout, det.stallReport(), diag)
			default:
				return nil, cancelled(err)
			}
		}
		sampleTimeline(round)
		if cfg.MaxInstrs > 0 {
			var instrs int64
			for pe := 0; pe < n; pe++ {
				instrs += det.acks[pe].Instrs
			}
			if instrs > cfg.MaxInstrs {
				return nil, fmt.Errorf("cluster: job exceeded its instruction budget: %d instructions executed, budget %d (Config.MaxInstrs)",
					instrs, cfg.MaxInstrs)
			}
		}
		if det.roundDone() {
			break
		}
		// Rebinds at the round boundary: every worker has flushed its cost
		// observations at least once this round (the flush precedes the ack
		// on the same FIFO stream), so the coordinator's view is as fresh
		// as the round itself.
		for _, rb := range ad.tick(round) {
			if err := toAll(func() *Msg {
				return &Msg{Kind: KRebound, Tmpl: rb.tmpl, Lists: &MsgLists{Cuts: append([]int64(nil), rb.cuts...)}}
			}); err != nil {
				return nil, err
			}
		}
		// Inter-round wait: handle whatever arrives until the interval is
		// up — or until the latest reports look terminated, which starts
		// the confirming round now (so a quiet round is never followed by a
		// sleep, and a job's end never waits on a timer). Only a wait that
		// ran its full length backs the cadence off.
		ticked := false
		timer.Reset(interval)
		for !ticked && !det.armed() {
			m, err := ep.in.recvUntil(ctx, timer.C)
			switch {
			case err == errWake:
				ticked = true
			case err != nil:
				return nil, cancelled(err)
			default:
				if err := handle(m); err != nil {
					return nil, err
				}
			}
		}
		timer.Stop()
		if probeReset {
			interval = cfg.ProbeInterval
			probeReset = false
		} else if ticked && interval < maxInterval {
			interval *= 2
		}
	}
	res.Stats.Counters = det.sum()
	res.Stats.Rebounds = ad.rebounds
	res.PEInstrs = det.perPEInstrs()
	res.PEStats = det.perPEStats()

	// Gather: ask each owning PE for its segment of every array.
	expect := 0
	for id, g := range res.arrays {
		for pe := 0; pe < n; pe++ {
			lo, hi := g.h.SegmentElems(pe)
			if lo >= hi {
				continue
			}
			if err := send(pe, &Msg{Kind: KDumpReq, Arr: id}); err != nil {
				return nil, err
			}
			expect++
		}
	}
	// The gather phase gets the same re-arming stall guard as a probe
	// round: a worker dying between the final quiet round and its
	// KDumpReq would otherwise hang the driver here just as silently as a
	// mid-round death would above, while a large gather that keeps making
	// progress can take as long as it needs. A worker dying here lost
	// finished results, so the job runs again.
	for expect > 0 {
		m, stalled, err := recvWithin(ctx, ep, timer, cfg.RoundTimeout)
		switch {
		case stalled:
			return nil, fmt.Errorf("cluster: result gather stalled for %v with %d dump segments outstanding (worker dead or wedged?)",
				cfg.RoundTimeout, expect)
		case err != nil:
			return nil, fmt.Errorf("cluster: gathering results: %w", err)
		case m.Kind == KDump:
			expect--
		}
		if err := handle(m); err != nil {
			return nil, err
		}
	}
	// Trace gather rides behind the array gather (same FIFO streams, so
	// every PE's ring is final by the time its answer arrives). Collection
	// is best-effort: the run's results are already in hand, and a PE that
	// cannot answer any more costs an empty trace, never the run.
	if cfg.Trace {
		pts := gatherTraces(ctx, ep, timer, n, traceGatherWait(cfg.RoundTimeout))
		res.Trace = &trace.Trace{NumPEs: n, PEs: pts, Timeline: tb.Done()}
	}
	return res, nil
}

// timelineCap bounds the driver-side metrics timeline in samples (one per
// PE per completed probe round); the oldest rounds drop (and are counted)
// beyond it.
const timelineCap = 1 << 16

// stallTailEvents is how many trailing trace events per PE a stalled
// round's diagnostic dump includes.
const stallTailEvents = 8

// traceGatherWait bounds each receive of the post-termination trace
// gather. The run is already complete, so the wait only covers a flush of
// an in-memory ring: far shorter than a full round deadline.
func traceGatherWait(roundTimeout time.Duration) time.Duration {
	w := 2 * time.Second
	if roundTimeout > 0 && roundTimeout < w {
		w = roundTimeout
	}
	if w < 100*time.Millisecond {
		w = 100 * time.Millisecond
	}
	return w
}

// gatherTraces asks every worker for its trace ring and collects the
// answers best-effort: a PE that cannot answer (dead, or wedged below its
// message loop) contributes an empty PETrace instead of failing the
// gather. Driver-bound frames of any other kind arriving in the window are
// stale post-termination traffic and are dropped.
func gatherTraces(ctx context.Context, ep *jobEndpoint, t *time.Timer, n int, wait time.Duration) []trace.PETrace {
	out := make([]trace.PETrace, n)
	got := make([]bool, n)
	need := 0
	for pe := 0; pe < n; pe++ {
		if err := ep.Send(pe, &Msg{Kind: KTraceReq}); err == nil {
			need++
		}
	}
	for need > 0 {
		m, _, err := recvWithin(ctx, ep, t, wait)
		if err != nil {
			break
		}
		if m.Kind != KTrace {
			continue
		}
		pe := int(m.From)
		if pe < 0 || pe >= n || got[pe] {
			continue
		}
		got[pe] = true
		need--
		out[pe] = trace.PETrace{Events: trace.Unflatten(m.Lists.TraceEvs), Drops: m.Lists.TraceDrops}
	}
	return out
}

// stallTraceDump formats each PE's trailing trace events for a stalled
// round's error message. The wait per receive is short: the PEs that can
// still talk answer immediately, and the one the round is stalled on
// probably never will.
func stallTraceDump(ctx context.Context, ep *jobEndpoint, t *time.Timer, n int) string {
	pts := gatherTraces(ctx, ep, t, n, 500*time.Millisecond)
	var b strings.Builder
	for pe := range pts {
		fmt.Fprintf(&b, "\n  pe %d trace tail (%d events, %d dropped):\n%s",
			pe, len(pts[pe].Events), pts[pe].Drops, trace.FormatTail(pts[pe].Events, stallTailEvents))
	}
	return b.String()
}

// recvWithin receives one driver-bound message, bounding the wait to within
// (0 or negative: unbounded) by re-arming the driver's timer t. The bound
// covers a single receive, so as a stall guard it re-arms with every
// message: it fires only on genuine silence, never on a phase that is slow
// but progressing. stalled distinguishes the bound from the caller's
// context ending.
func recvWithin(ctx context.Context, ep *jobEndpoint, t *time.Timer, within time.Duration) (m *Msg, stalled bool, err error) {
	if within <= 0 {
		m, err = ep.in.recv(ctx)
		return m, false, err
	}
	t.Reset(within)
	m, err = ep.in.recvUntil(ctx, t.C)
	t.Stop()
	return m, err == errWake, err
}
