package cluster

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// The seeded schedule harness: one thread runs a job's real workers and its
// real driver code, every frame between them passing through it. A round
// gives each PE a turn — drain its mailbox, then one step or, with nothing
// ready, the run loop's idle branch (the push and the steal attempt) — and
// the driver a turn of drive's loop (handle, openRound, closeRound,
// backoff, gather). Frames are released per (sender, receiver) pair in send
// order, each after a seeded delay; seeded stalls skip PEs' turns. Time is
// virtual, a round a nanosecond: the probe cadence and the stall guard's
// deadline count rounds, and once every PE would block with nothing in
// flight the clock skips to the driver's next deadline, so a stalled run
// fails as drive would, with the stall report (and, traced, the PEs' trace
// tails). The zero schedule delays and stalls nothing; the pinned results
// in this package are measured on it.

// schedule is one harness schedule.
type schedule struct {
	seed     uint64        // 0: the zero schedule
	killAt   int64         // PE killPE dies on the killAt-th data frame or ack it sends (0: never)
	probe    time.Duration // the driver's probe cadence in rounds (0: the seed picks it)
	deadline time.Duration // the driver's stall guard in rounds (0: roundTimeout)
}

const killPE = 1

type harness struct {
	prog                   *isa.Program
	cfg                    Config
	ws                     []*worker
	boxes                  []*mailbox // every party's mailbox: PEs 0..n-1, the driver at n
	held                   []heldFrame
	lastDue                []int64       // per (from, to) pair: keeps each pair's dues in send order
	delay                  []int         // per (from, to) pair: the frame delay bound (rounds)
	blocked                []bool        // the PE's last turn idled and moved nothing: it would block
	now, rounds, maxRounds int64         // the virtual clock, and the rounds run and allowed
	ticks                  int           // inter-round waits that ran their full length
	rng                    *rand.Rand    // nil on the zero schedule
	stall                  int           // per-turn stall chance (%)
	probe, deadline        time.Duration // the driver's probe cadence and stall guard (rounds)
	killAt, kill           int64         // the kill's frame index, and PE killPE's count so far
	dead                   int           // the killed PE or one a test silenced (no turns), or -1
	sent                   [][256]int64  // frames sent from PE to PE, by sender and kind

	each func()                    // runs after every round
	lose func(to int, m *Msg) bool // frames a test loses on the wire
}

type heldFrame struct {
	due, to int64
	m       *Msg
}

// newHarness builds a job's workers on sch, cfg filled with the backends'
// defaults. A seed picks the frame delay bounds, the stall chance and,
// unless sch sets one, the probe cadence (probeInterval on the zero
// schedule). An even seed gives every pair one delay bound; an odd seed
// skews them, each pair drawing its own from {0, 0, 1, 64}, so one PE's
// probes or acks can lag far behind the others'.
func newHarness(t testing.TB, prog *isa.Program, cfg Config, sch schedule) *harness {
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	n := cfg.NumPEs
	h := &harness{prog: prog, cfg: cfg, boxes: make([]*mailbox, n+1), lastDue: make([]int64, (n+1)*(n+1)),
		delay: make([]int, (n+1)*(n+1)), blocked: make([]bool, n), maxRounds: 1 << 24, probe: sch.probe,
		deadline: cmp.Or(sch.deadline, roundTimeout), killAt: sch.killAt, dead: -1, sent: make([][256]int64, n)}
	if h.probe == 0 {
		h.probe = probeInterval
		if sch.seed != 0 {
			h.probe = []time.Duration{8, 64, 512, 100_000}[sch.seed%4]
		}
	}
	if sch.seed != 0 {
		h.rng = rand.New(rand.NewPCG(sch.seed, 0x5eed))
		delay := []int{0, 1, 3, 8, 32}[h.rng.IntN(5)]
		h.stall = []int{0, 10, 40}[h.rng.IntN(3)]
		for i := range h.delay {
			h.delay[i] = delay
			if sch.seed%2 == 1 {
				h.delay[i] = []int{0, 0, 1, 64}[h.rng.IntN(4)]
			}
		}
	}
	for i := range h.boxes {
		h.boxes[i] = newMailbox()
	}
	for pe := 0; pe < n; pe++ {
		h.ws = append(h.ws, newWorker(pe, &cfg, prog, h.endpoint(pe)))
	}
	return h
}

func (h *harness) endpoint(i int) *jobEndpoint {
	return &jobEndpoint{out: harnessEP{h, i}, in: h.boxes[i]}
}

// harnessEP is one party's send side.
type harnessEP struct {
	h    *harness
	self int
}

func (e harnessEP) Send(to int, m *Msg) error {
	h, n := e.h, len(e.h.ws)
	if e.self == h.dead {
		return ErrClosed
	}
	if to < 0 || to > n {
		return fmt.Errorf("harness: send to unknown endpoint %d", to)
	}
	if h.lose != nil && h.lose(to, m) {
		return nil
	}
	if e.self == killPE && h.killAt > 0 && (m.Kind.isData() || m.Kind == KAck) {
		if h.kill++; h.kill == h.killAt {
			// As the channel transport's fault injector does: the frame is
			// lost, and the PE and every frame to or from it with it.
			h.dead = killPE
			h.boxes[killPE].sever()
			h.drop(func(f heldFrame) bool { return f.to != killPE && f.m.From != killPE })
			h.boxes[n].put(&Msg{Kind: KDown, From: killPE})
			return ErrClosed
		}
	}
	m.From = int32(e.self)
	if e.self < n && to < n {
		h.sent[e.self][m.Kind]++
	}
	pair := e.self*(n+1) + to
	due := h.now
	if h.rng != nil {
		due += int64(h.rng.IntN(h.delay[pair] + 1))
	}
	due = max(due, h.lastDue[pair])
	h.lastDue[pair] = due
	if due <= h.now {
		h.boxes[to].put(m) // a severed box drops it
	} else {
		h.held = append(h.held, heldFrame{due, int64(to), m})
	}
	return nil
}

func (harnessEP) Close() error { return nil }

// drop keeps the held frames keep accepts and forgets the others.
func (h *harness) drop(keep func(heldFrame) bool) {
	kept := h.held[:0]
	for _, f := range h.held {
		if keep(f) {
			kept = append(kept, f)
		}
	}
	clear(h.held[len(kept):])
	h.held = kept
}

// drain handles what PE w's mailbox holds, as the run loop does, and
// reports whether it held anything.
func (h *harness) drain(w *worker) (moved bool) {
	for !w.stopped {
		m, ok := w.ep.in.tryRecv()
		if !ok {
			break
		}
		w.handle(m)
		moved = true
	}
	return moved
}

// turn is PE w's turn: drain, then a step or (with idle) the run loop's idle
// branch. It reports whether the PE handled a frame or stepped.
func (h *harness) turn(w *worker, idle bool) (moved bool) {
	moved = h.drain(w)
	switch {
	case w.stopped:
	case !w.failed && w.readyHead != len(w.ready):
		w.step()
		moved = true
	case idle:
		w.idle()
	}
	h.blocked[w.pe] = idle && !moved
	return moved
}

// round advances the clock one round: deliver what is due, then a turn for
// each live PE the schedule does not stall.
func (h *harness) round() {
	h.now++
	h.rounds++
	h.drop(func(f heldFrame) bool {
		if f.due <= h.now {
			h.boxes[f.to].put(f.m)
		}
		return f.due > h.now
	})
	for pe, w := range h.ws {
		if pe != h.dead && (h.rng == nil || h.rng.IntN(100) >= h.stall) {
			h.turn(w, true)
		}
	}
	if h.each != nil {
		h.each()
	}
}

// settle runs zero-delay turns without the idle branch until nothing moves:
// a scripted test decides itself when a PE tries to steal.
func (h *harness) settle() {
	for moved := true; moved; {
		moved = false
		for _, w := range h.ws {
			moved = h.turn(w, false) || moved
		}
	}
}

// inject sends m to pe from the driver's endpoint: a scripted test's
// stand-in for a program's frames.
func (h *harness) inject(pe int, m *Msg) { _ = harnessEP{h, len(h.ws)}.Send(pe, m) }

// The driver's phases: the states of drive's loop.
const (
	inRound   = iota // a probe round is open
	between          // the inter-round wait
	gathering        // the result gather
	tracing          // the trace gather
)

// run runs the job to the driver's end and returns what drive would: the
// result, a *deathError or the failure. Termination declared with work or
// data frames left, and no end within maxRounds, are errors too.
func (h *harness) run(args ...isa.Value) (*Result, error) {
	n := len(h.ws)
	d := newDriver(h.endpoint(n), h.cfg, h.probe, h.deadline)
	err := d.send(0, &Msg{Kind: KSpawn, Tmpl: int32(h.prog.EntryID), Args: args})
	if err == nil {
		err = d.openRound()
	}
	if err != nil {
		return nil, err
	}
	phase, until, heard := inRound, int64(0), int64(0)
	var tg *traceGather
	stalling := false // the trace gather is a stalled round's: its end fails the run
	for h.rounds < h.maxRounds {
		h.round()
		for { // the driver's turn, one frame at a time
			switch {
			case phase == inRound && d.roundComplete:
				done, err := d.closeRound()
				if err == nil && done {
					if err = h.terminated(); err == nil {
						err = d.gather()
					}
				}
				if err != nil {
					return nil, err
				}
				phase, until, heard = between, h.now+int64(d.interval), h.now
				if done {
					phase = gathering
				}
				continue
			case phase == between && (d.det.armed() || h.now >= until):
				ticked := !d.det.armed()
				if ticked {
					h.ticks++
				}
				d.backoff(ticked)
				if err := d.openRound(); err != nil {
					return nil, err
				}
				phase, heard = inRound, h.now
				continue
			case phase == gathering && d.expect == 0 && !h.cfg.Trace:
				return d.res, nil
			case phase == gathering && d.expect == 0:
				tg, phase, heard = requestTraces(&d.ep, n), tracing, h.now
				continue
			case phase == tracing && tg.need == 0 && stalling:
				return nil, d.stalled(traceTails(tg.pts))
			case phase == tracing && tg.need == 0:
				d.res.Trace = &trace.Trace{NumPEs: n, PEs: tg.pts, Timeline: d.tb.Done()}
				return d.res, nil
			}
			m, ok := h.boxes[n].tryRecv()
			if !ok {
				break
			}
			heard = h.now
			if phase == tracing {
				tg.take(m)
			} else if err := d.handle(m); err != nil {
				return nil, err
			}
		}
		// The driver's next deadline: the stall guard re-armed by every
		// frame, a trace gather's wait, or the end of the inter-round wait.
		next := until
		switch {
		case phase == tracing && stalling:
			next = heard + int64(stallTraceWait)
		case phase == tracing:
			next = heard + int64(traceGatherWait)
		case phase != between:
			next = heard + int64(h.deadline)
		}
		switch {
		case h.now >= next && phase == tracing:
			tg.need = 0
		case h.now >= next && phase == inRound && h.cfg.Trace:
			tg, phase, heard, stalling = requestTraces(&d.ep, n), tracing, h.now, true
		case h.now >= next && phase != between:
			return nil, d.stalled("")
		case h.still():
			h.now = next - 1
		}
	}
	return nil, fmt.Errorf("harness: no end within %d rounds", h.maxRounds)
}

// still reports whether nothing can move before the driver's next deadline
// (whose mailbox its turn left empty): no frame is held, and every live PE
// would block with nothing queued.
func (h *harness) still() bool {
	for _, w := range h.ws {
		if w.pe != h.dead && !w.stopped && (!h.blocked[w.pe] || w.ep.in.head < len(w.ep.in.q)) {
			return false
		}
	}
	return len(h.held) == 0
}

// terminated checks the moment the driver declares termination: no worker
// holds a live SP or a parked frame, and no data frame is held or queued.
func (h *harness) terminated() error {
	for _, w := range h.ws {
		if w.pe != h.dead && len(w.insts)+len(w.pending) > 0 {
			return fmt.Errorf("harness: termination declared while pe %d holds %d live SPs and frames for %d arrays",
				w.pe, len(w.insts), len(w.pending))
		}
	}
	for _, f := range h.held {
		if f.m.Kind.isData() {
			return fmt.Errorf("harness: termination declared with a %s from %d to %d in flight", f.m.Kind, f.m.From, f.to)
		}
	}
	for i, b := range h.boxes {
		for _, e := range b.q[b.head:] {
			if e.m.Kind.isData() {
				return fmt.Errorf("harness: termination declared with a %s queued at %d", e.m.Kind, i)
			}
		}
	}
	return nil
}

// harnessRun runs kernel k at size n on pes PEs on sch, after setup, and
// checks its arrays against the simulator's. PageElems defaults to 8.
func harnessRun(t *testing.T, k kernels.Kernel, n, pes int, cfg Config, sch schedule, setup ...func(*harness)) (*harness, *Result) {
	t.Helper()
	prog := compile(t, k.File(), k.Source)
	wantVals, wantMasks := simArraysMasked(t, prog, pes, k.Arrays, k.Args(n)...)
	if cfg.PageElems == 0 {
		cfg.PageElems = 8
	}
	cfg.NumPEs = pes
	h := newHarness(t, prog, cfg, sch)
	for _, f := range setup {
		f(h)
	}
	res, err := h.run(k.Args(n)...)
	if err != nil {
		t.Fatalf("%s@%d %+v: %v", k.Name, pes, sch, err)
	}
	checkAgainstSimMasked(t, res, wantVals, wantMasks)
	return h, res
}
