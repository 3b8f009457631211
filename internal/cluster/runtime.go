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

// probeInterval is the mid-run cadence of the driver's probe rounds — what
// paces adapt cost flushes and rebinds, the heat cap governor, steal
// revival and the MaxInstrs check. The driver backs off geometrically up to
// 50× this while the program is still running. It is not the detection
// latency: workers report going idle and the driver confirms with an
// immediate round, so a finished job never waits out an interval.
const probeInterval = 100 * time.Microsecond

// roundTimeout is how long a probe round or the result gather may hear
// nothing before the run fails. A worker that dies or wedges mid-round
// would otherwise leave the driver hanging silently until its context
// expires; a stall fails with each PE's last-ack state (round, live SPs,
// message counters) instead, and with each PE's trace tail when tracing.
const roundTimeout = 30 * time.Second

// driver is one run's driver state: result assembly, the termination
// detector, the adapt coordinator, budgets, the metrics timeline and the
// probe cadence. Its methods never wait. drive runs them under the wall
// clock; the tests' seeded harness runs them under a virtual one.
type driver struct {
	ep  jobEndpoint
	cfg Config
	n   int
	res *Result
	det detector
	ad  adaptCoord

	// allocIDs lists the arrays in KAlloc arrival order; the gather asks
	// for them in this order, so a replayed schedule replays its sends.
	allocIDs []int64

	// Per-job budgets (admission control): MaxElems is enforced exactly at
	// each KAlloc broadcast (the driver sees every allocation before any
	// element is written); MaxInstrs at each completed probe round from the
	// acked instruction counters — round-lagged, but a job can only
	// overshoot by one round's worth of work.
	allocElems int64

	// Observability (Config.Trace): the timeline builder turns each
	// completed round's acks into one delta-encoded sample per PE, taken
	// against the previous completed round's counters (prevAcks).
	tb       *trace.TimelineBuilder
	prevAcks []AckStats
	start    time.Time

	round         int32
	roundComplete bool          // every PE acked round
	probeReset    bool          // a new sweep reported costs: reset the back-off
	probe         time.Duration // the base cadence: probeInterval, or a test's
	interval      time.Duration
	deadline      time.Duration // the stall guard: roundTimeout, or a test's
	expect        int           // dump segments the gather still waits for
}

func newDriver(ep *jobEndpoint, cfg Config, probe, deadline time.Duration) driver {
	n := cfg.NumPEs
	d := driver{ep: *ep, cfg: cfg, n: n, det: *newDetector(n), ad: *newAdaptCoord(n),
		start: time.Now(), probe: probe, interval: probe, deadline: deadline,
		res: &Result{NumPEs: n, arrays: make(map[int64]*gathered), byName: make(map[string]int64)}}
	if cfg.Trace {
		d.tb = trace.NewTimelineBuilder(timelineCap)
		d.prevAcks = make([]AckStats, n)
	}
	return d
}

// send is ep.Send for a frame the run cannot do without: a send bouncing
// off a dead connection is a death notice in its own right.
func (d *driver) send(pe int, m *Msg) error {
	if err := d.ep.Send(pe, m); err != nil {
		return &deathError{pe, err}
	}
	return nil
}

func (d *driver) toAll(mk func() *Msg) error {
	for pe := 0; pe < d.n; pe++ {
		if err := d.send(pe, mk()); err != nil {
			return err
		}
	}
	return nil
}

// handle processes one driver-bound message and releases it; it returns an
// error for KFail, KDown and KLost and flags round completion for KAck.
// Nothing it keeps may point into the frame.
func (d *driver) handle(m *Msg) error {
	defer releaseMsg(m)
	res := d.res
	switch m.Kind {
	case KToken:
		v := m.Val
		res.Value = &v
	case KAlloc:
		if res.arrays[m.Arr] != nil {
			return fmt.Errorf("cluster: array %d allocated twice", m.Arr)
		}
		h, err := allocHeader(m, d.cfg.PageElems, d.n)
		if err != nil {
			return err
		}
		d.allocElems += int64(h.Elems())
		if d.cfg.MaxElems > 0 && d.allocElems > d.cfg.MaxElems {
			return fmt.Errorf("cluster: job exceeded its element budget: %d elements allocated, budget %d (Config.MaxElems)",
				d.allocElems, d.cfg.MaxElems)
		}
		res.arrays[m.Arr] = &gathered{h: h, vals: make([]float64, h.Elems()), mask: make([]bool, h.Elems())}
		d.allocIDs = append(d.allocIDs, m.Arr)
		if _, seen := res.byName[h.Name]; !seen {
			res.nameSeq = append(res.nameSeq, h.Name)
		}
		res.byName[h.Name] = m.Arr
	case KFail:
		return fmt.Errorf("cluster: %s", m.Name)
	case KAck:
		// The detector ignores stale-round and duplicate acks itself.
		d.roundComplete = d.det.record(int(m.From), m) || d.roundComplete
	case KCostReport:
		d.probeReset = d.ad.merge(m, d.round) || d.probeReset
	case KDown:
		return &deathError{-1, fmt.Errorf("cluster: worker %d died (transport closed)", m.From)}
	case KLost:
		// A worker could not reach a peer: that peer is as dead as one
		// a driver send bounced off.
		if m.ReqPE < 0 || int(m.ReqPE) >= d.n {
			return fmt.Errorf("cluster: worker %d reported unknown pe %d lost", m.From, m.ReqPE)
		}
		return &deathError{int(m.ReqPE), fmt.Errorf("cluster: worker %d cannot reach pe %d: %s", m.From, m.ReqPE, m.Name)}
	case KDump:
		g := res.arrays[m.Arr]
		if g == nil {
			return fmt.Errorf("cluster: dump for unknown array %d", m.Arr)
		}
		d.expect--
		return mergeDump(g.h.Name, g.vals, g.mask, m)
	default:
		return fmt.Errorf("cluster: driver got unexpected %s message", m.Kind)
	}
	return nil
}

// openRound starts the next probe round.
func (d *driver) openRound() error {
	d.round++
	d.roundComplete = false
	d.det.begin(d.round)
	return d.toAll(func() *Msg { return newMsg(Msg{Kind: KProbe, Round: d.round}) })
}

// closeRound acts on a completed round: the timeline sample, the
// instruction budget, the termination check (done), and otherwise the
// rebinds. Rebinds go out at the round boundary: every worker has flushed
// its cost observations at least once this round (the flush precedes the
// ack on the same FIFO stream), so the coordinator's view is as fresh as
// the round itself.
func (d *driver) closeRound() (done bool, err error) {
	if d.tb != nil {
		wall := int64(time.Since(d.start))
		for pe := 0; pe < d.n; pe++ {
			a, p := d.det.acks[pe], d.prevAcks[pe]
			d.tb.Add(trace.Sample{
				Round: int(d.round), Wall: wall, PE: pe,
				Instrs: a.Instrs - p.Instrs, QDepth: a.QDepth, Live: a.Live,
				Sent: a.MsgsSent - p.MsgsSent, Hits: a.CacheHits - p.CacheHits,
				Misses: a.CacheMisses - p.CacheMisses, Evicts: a.Evictions - p.Evictions,
				Steals: a.Steals - p.Steals,
			})
			d.prevAcks[pe] = a
		}
	}
	if d.cfg.MaxInstrs > 0 && d.det.sum().Instrs > d.cfg.MaxInstrs {
		return false, fmt.Errorf("cluster: job exceeded its instruction budget: %d instructions executed, budget %d (Config.MaxInstrs)",
			d.det.sum().Instrs, d.cfg.MaxInstrs)
	}
	if d.det.roundDone() {
		return true, nil
	}
	for _, rb := range d.ad.tick(d.round) {
		if err := d.toAll(func() *Msg {
			return newMsg(Msg{Kind: KRebound, Tmpl: rb.tmpl, Lists: &MsgLists{Cuts: append([]int64(nil), rb.cuts...)}})
		}); err != nil {
			return false, err
		}
	}
	return false, nil
}

// backoff sets the next inter-round wait. Probe rounds back off
// geometrically: tight while the run is short, cheap while it is long. The
// cadence is for what rides it mid-run (the layers' probe duties, rebinds,
// budget and stall checks); detection does not wait for it — the moment
// the latest reports look terminated the next round starts at once. Only
// a wait that ran its full length (ticked) backs the cadence off, and it
// resets whenever a new sweep starts reporting costs: a rebind decision is
// then imminent and must not wait tens of sweep-lengths, while a run whose
// sweeps have stopped arriving (or that never rebinds at all) pays no
// lasting probe overhead.
func (d *driver) backoff(ticked bool) {
	if d.probeReset {
		d.interval = d.probe
		d.probeReset = false
	} else if ticked && d.interval < 50*d.probe {
		d.interval *= 2
	}
}

// gather ends the rounds: the final acks become the run's statistics, and
// each owning PE is asked for its segment of every array.
func (d *driver) gather() error {
	d.res.Stats.Counters = d.det.sum()
	d.res.Stats.Rebounds = d.ad.rebounds
	d.res.PEInstrs = d.det.perPEInstrs()
	d.res.PEStats = d.det.perPEStats()
	for _, id := range d.allocIDs {
		g := d.res.arrays[id]
		for pe := 0; pe < d.n; pe++ {
			if lo, hi := g.h.SegmentElems(pe); lo < hi {
				if err := d.send(pe, newMsg(Msg{Kind: KDumpReq, Arr: id})); err != nil {
					return err
				}
				d.expect++
			}
		}
	}
	return nil
}

// stalled is the error of a round or gather that heard nothing for the
// deadline; diag is the stalled round's trace tails, if any.
func (d *driver) stalled(diag string) error {
	if d.expect > 0 {
		return fmt.Errorf("cluster: result gather stalled for %v with %d dump segments outstanding (worker dead or wedged?)",
			d.deadline, d.expect)
	}
	return fmt.Errorf("cluster: probe round %d stalled for %v (worker dead or wedged?): %s%s",
		d.round, d.deadline, d.det.stallReport(), diag)
}

// drive is the driver loop: spawn the entry SP on PE 0, then alternate
// between handling worker messages and termination probes; on termination,
// gather every array and stop the workers. Probe rounds start at the
// cadence probe. A worker death returns a *deathError; a stalled round or
// gather names no dead PE and is a plain error.
func drive(ctx context.Context, ep *jobEndpoint, cfg Config, probe time.Duration, entry *isa.Template, args []isa.Value) (*Result, error) {
	d := newDriver(ep, cfg, probe, roundTimeout)
	defer func() {
		for pe := 0; pe < d.n; pe++ {
			_ = ep.Send(pe, newMsg(Msg{Kind: KStop}))
		}
	}()
	cancelled := func(err error) error {
		return fmt.Errorf("cluster: run cancelled (deadlocked dataflow program? %d live SPs): %w", d.det.liveSPs(), err)
	}
	// The driver's one timer: every bounded wait below re-arms it.
	timer := time.NewTimer(probe)
	defer timer.Stop()

	if err := d.send(0, newMsg(Msg{Kind: KSpawn, Tmpl: int32(entry.ID), Args: args})); err != nil {
		return nil, err
	}
	for {
		if err := d.openRound(); err != nil {
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
		for !d.roundComplete {
			m, stalled, err := recvWithin(ctx, ep, timer, d.deadline)
			switch {
			case err == nil:
				err = d.handle(m)
			case stalled:
				// With tracing on, pull each PE's last trace events
				// before tearing the cluster down: a wedged-but-alive
				// worker still answers KTraceReq from its message loop,
				// and the event tail says what it was doing when the
				// round stalled — far more than last-ack counters can.
				diag := ""
				if cfg.Trace {
					diag = traceTails(gatherTraces(ctx, ep, timer, d.n, stallTraceWait))
				}
				err = d.stalled(diag)
			default:
				err = cancelled(err)
			}
			if err != nil {
				return nil, err
			}
		}
		done, err := d.closeRound()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		// Inter-round wait: handle whatever arrives until the interval is
		// up — or until the latest reports look terminated, which starts
		// the confirming round now (so a quiet round is never followed by a
		// sleep, and a job's end never waits on a timer).
		ticked := false
		timer.Reset(d.interval)
		for !ticked && !d.det.armed() {
			m, err := ep.in.recvUntil(ctx, timer.C)
			switch {
			case err == errWake:
				ticked = true
			case err != nil:
				return nil, cancelled(err)
			default:
				if err := d.handle(m); err != nil {
					return nil, err
				}
			}
		}
		timer.Stop()
		d.backoff(ticked)
	}
	if err := d.gather(); err != nil {
		return nil, err
	}
	// The gather phase gets the same re-arming stall guard as a probe
	// round: a worker dying between the final quiet round and its
	// KDumpReq would otherwise hang the driver here just as silently as a
	// mid-round death would above, while a large gather that keeps making
	// progress can take as long as it needs. A worker dying here lost
	// finished results, so the job runs again.
	for d.expect > 0 {
		m, stalled, err := recvWithin(ctx, ep, timer, d.deadline)
		switch {
		case stalled:
			return nil, d.stalled("")
		case err != nil:
			return nil, fmt.Errorf("cluster: gathering results: %w", err)
		}
		if err := d.handle(m); err != nil {
			return nil, err
		}
	}
	// Trace gather rides behind the array gather (same FIFO streams, so
	// every PE's ring is final by the time its answer arrives). Collection
	// is best-effort: the run's results are already in hand, and a PE that
	// cannot answer any more costs an empty trace, never the run.
	if cfg.Trace {
		pts := gatherTraces(ctx, ep, timer, d.n, traceGatherWait)
		d.res.Trace = &trace.Trace{NumPEs: d.n, PEs: pts, Timeline: d.tb.Done()}
	}
	return d.res, nil
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
const traceGatherWait = 2 * time.Second

// stallTraceWait bounds each receive of a stalled round's trace gather. It
// is short: the PEs that can still talk answer immediately, and the one
// the round is stalled on probably never will.
const stallTraceWait = 500 * time.Millisecond

// traceGather collects the workers' trace rings best-effort: a PE that
// cannot answer (dead, or wedged below its message loop) keeps an empty
// PETrace instead of failing the gather.
type traceGather struct {
	pts  []trace.PETrace
	got  []bool
	need int
}

// requestTraces asks every worker for its trace ring.
func requestTraces(ep *jobEndpoint, n int) *traceGather {
	g := &traceGather{pts: make([]trace.PETrace, n), got: make([]bool, n)}
	for pe := 0; pe < n; pe++ {
		if err := ep.Send(pe, newMsg(Msg{Kind: KTraceReq})); err == nil {
			g.need++
		}
	}
	return g
}

// take records one answer. Driver-bound frames of any other kind arriving
// in the window are stale post-termination traffic and are dropped.
func (g *traceGather) take(m *Msg) {
	pe := int(m.From)
	if m.Kind != KTrace || pe < 0 || pe >= len(g.got) || g.got[pe] {
		return
	}
	g.got[pe] = true
	g.need--
	g.pts[pe] = trace.PETrace{Events: trace.Unflatten(m.Lists.TraceEvs), Drops: m.Lists.TraceDrops}
}

// gatherTraces runs a trace gather, each receive bounded by wait.
func gatherTraces(ctx context.Context, ep *jobEndpoint, t *time.Timer, n int, wait time.Duration) []trace.PETrace {
	g := requestTraces(ep, n)
	for g.need > 0 {
		m, _, err := recvWithin(ctx, ep, t, wait)
		if err != nil {
			break
		}
		g.take(m)
	}
	return g.pts
}

// traceTails formats each PE's trailing trace events for a stalled round's
// error message.
func traceTails(pts []trace.PETrace) string {
	var b strings.Builder
	for pe := range pts {
		fmt.Fprintf(&b, "\n  pe %d trace tail (%d events, %d dropped):\n%s",
			pe, len(pts[pe].Events), pts[pe].Drops, trace.FormatTail(pts[pe].Events, stallTailEvents))
	}
	return b.String()
}

// recvWithin receives one driver-bound message, bounding the wait to within
// by re-arming the driver's timer t. The bound covers a single receive, so
// as a stall guard it re-arms with every message: it fires only on genuine
// silence, never on a phase that is slow but progressing. stalled
// distinguishes the bound from the caller's context ending.
func recvWithin(ctx context.Context, ep *jobEndpoint, t *time.Timer, within time.Duration) (m *Msg, stalled bool, err error) {
	t.Reset(within)
	m, err = ep.in.recvUntil(ctx, t.C)
	t.Stop()
	return m, err == errWake, err
}
