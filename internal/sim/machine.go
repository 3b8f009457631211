// Package sim is the PODS simulator: a deterministic discrete-event model of
// a distributed-memory MIMD machine (an iPSC/2-like hypercube) executing
// translated dataflow programs as Subcompact Processes. Each PE has five
// concurrently operating functional units — Execution Unit, Matching Unit,
// Memory Manager, Array Manager, Routing Unit (paper Figure 7) — and the
// network is modeled as pure propagation delay. All service times come from
// internal/timing, i.e. from §5.1 of the paper.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/istructure"
	"repro/internal/timing"
)

// unit is one functional unit with FIFO service: a job scheduled at time t
// starts at max(t, free) and occupies the unit for its duration.
type unit struct {
	free int64
	busy int64
}

// serve schedules dur of work on u no earlier than `earliest`; when the work
// completes, event kind fires with rec (evNone: nothing waits for it).
func (m *Machine) serve(u *unit, earliest, dur int64, kind evKind, rec int32) {
	start := earliest
	if u.free > start {
		start = u.free
	}
	end := start + dur
	u.free = end
	u.busy += dur
	if kind != evNone {
		m.at(end, kind, rec)
	} else if end > m.horizon {
		m.horizon = end
	}
}

// extend adds extra occupancy to a unit from within its own completion
// handler (used when a job's true length is only known at execution time,
// e.g. releasing queued I-structure reads on a write).
func (m *Machine) extend(u *unit, now, extra int64) int64 {
	if u.free < now {
		u.free = now
	}
	u.free += extra
	u.busy += extra
	return u.free
}

type spState uint8

const (
	spReady spState = iota + 1
	spRunning
	spBlocked
	spStalled // baseline (Stall) mode: EU waiting in place
)

// tmplCode is a template as the EU runs it: the decoded code plus the EU
// time of every instruction under this machine's Config, built on the
// template's first instantiation.
type tmplCode struct {
	tmpl *isa.Template
	d    *isa.Decoded
	cost []int64 // per pc; a comparison of floats adds floatCmpExtra
}

// spInst is one live SP instance: a template plus an operand frame and a
// program counter — the paper's PCB ("the starting address of the SP, a
// program counter, and a status field"). An absent operand is a slot of
// KindInvalid. Halted instances are reused (see Machine.newSP).
type spInst struct {
	id      int64
	code    *tmplCode
	ti      int32 // index of the template in the program
	frame   []isa.Value
	pc      int
	state   spState
	blocked int // slot index the SP is blocked on
	pe      int
}

// spQueue is a PE's FIFO of ready SPs: a slice consumed from head, rewound
// when it empties and compacted only when it would otherwise grow.
type spQueue struct {
	q    []*spInst
	head int
}

func (r *spQueue) empty() bool { return r.head == len(r.q) }

func (r *spQueue) push(sp *spInst) {
	if r.head > 0 && len(r.q) == cap(r.q) {
		n := copy(r.q, r.q[r.head:])
		clear(r.q[n:])
		r.q, r.head = r.q[:n], 0
	}
	r.q = append(r.q, sp)
}

func (r *spQueue) pop() *spInst {
	sp := r.q[r.head]
	r.q[r.head] = nil
	if r.head++; r.head == len(r.q) {
		r.q, r.head = r.q[:0], 0
	}
	return sp
}

type pe struct {
	id    int
	m     *Machine
	shard *istructure.Shard

	eu unit // execution unit (managed by exec.go, but busy time lives here)
	mu unit // matching unit
	mm unit // memory manager
	am unit // array manager
	ru unit // routing unit

	ready    spQueue
	cur      *spInst
	euActive bool
	x        isa.Exec // the executor state, pointed at cur for each run

	// stallOn is set by a remote read in the control-driven baseline
	// (Config.Stall): the EU waits on this slot instead of switching SPs.
	stallOn int
}

// Machine simulates a PODS multiprocessor executing one program.
type Machine struct {
	cfg      Config
	tracing  bool   // cfg.Trace != nil, checked before a trace call's arguments are built
	traceBuf []byte // the line being formatted, reused
	prog     *isa.Program
	code     []tmplCode // by template index
	pes      []*pe
	ran      bool

	events    eventQueue
	msgs      []msg
	freeMsgs  []int32
	nEvents   int64
	maxEvents int64 // eventLimit; tests lower it
	now       int64
	horizon   int64 // latest unit-completion time with no callback

	nextSP    int64
	nextArray int64

	sps     []*spInst        // live SP instances by ID (nil: halted or not yet active)
	freeSPs [][]*spInst      // halted instances by frame length
	byName  map[string]int64 // last allocated array per source name
	nameSeq []string

	counts Counts
	failed error

	mainResult *isa.Value
}

// New builds a machine for a validated program.
func New(prog *isa.Program, cfg Config) (*Machine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if prog == nil {
		return nil, errors.New("sim: nil program")
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m := &Machine{
		cfg:       cfg,
		tracing:   cfg.Trace != nil,
		prog:      prog,
		code:      make([]tmplCode, len(prog.Templates)),
		maxEvents: eventLimit,
		sps:       make([]*spInst, 1), // ID 0 is the environment
		byName:    make(map[string]int64),
	}
	m.pes = make([]*pe, cfg.NumPEs)
	for i := range m.pes {
		p := &pe{id: i, m: m, shard: istructure.NewShard(i), stallOn: isa.None}
		p.x = isa.Exec{Backend: p, CmpExtra: floatCmpExtra, Watch: isa.None}
		m.pes[i] = p
	}
	return m, nil
}

// fail records the first fatal simulation error and halts event processing.
func (m *Machine) fail(err error) {
	if m.failed == nil {
		m.failed = err
	}
}

// trace emits one lifecycle line. Callers check m.tracing first, so an
// untraced run never builds the argument list.
func (m *Machine) trace(t int64, pe int, format string, args ...interface{}) {
	m.traceBuf = fmt.Appendf(m.traceBuf[:0], "[%10.3fµs] PE%-2d ", float64(t)/1000, pe)
	m.traceBuf = append(fmt.Appendf(m.traceBuf, format, args...), '\n')
	_, _ = m.cfg.Trace.Write(m.traceBuf) // a diagnostic: a failed write changes nothing
}

// DeadlockError reports SPs still alive when the event queue drained.
type DeadlockError struct {
	Report string
}

func (e *DeadlockError) Error() string {
	return "sim: deadlock — live SPs remain with no pending events:\n" + e.Report
}

// Run instantiates the entry template with the given arguments on PE 0 and
// processes events until the machine drains. A Machine runs once: its shards
// and counters are not reset, so a second call is refused.
func (m *Machine) Run(args ...isa.Value) (*Result, error) {
	if m.ran {
		return nil, errors.New("sim: Run called twice; build a new Machine for each run")
	}
	m.ran = true
	args, err := m.prog.EntryArgs(args)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	sp := m.newSP(m.prog.EntryID, m.newSPID())
	copy(sp.frame, args)
	m.instantiate(m.pes[0], sp, 0)
	m.pes[0].wakeEU(0)

	for !m.events.empty() && m.failed == nil {
		ev := m.events.pop()
		m.now = ev.t
		switch t := ev.t; ev.kind {
		case evEU, evEUSettled:
			m.pes[ev.rec].euStep(t, ev.kind == evEUSettled)
		case evRU:
			m.at(t+m.msgs[ev.rec].flight, evArrive, ev.rec)
		case evArrive:
			r := &m.msgs[ev.rec]
			m.serve(r.unit, t, r.dur, r.kind, ev.rec)
			if r.kind == evNone {
				m.takeMsg(ev.rec)
			}
		case evAllocDone:
			m.allocDone(t, m.takeMsg(ev.rec))
		case evLocalRead:
			m.localRead(t, m.takeMsg(ev.rec))
		case evProbe:
			m.probeCache(t, m.takeMsg(ev.rec))
		case evReadReq:
			m.serveReadRequest(t, m.takeMsg(ev.rec))
		case evPage:
			m.receivePage(t, m.takeMsg(ev.rec))
		case evToken:
			r := m.takeMsg(ev.rec)
			m.counts.TokensMatched++
			m.deliver(t, r.sp, r.slot, r.val)
		case evWrite:
			m.ownerWrite(t, m.takeMsg(ev.rec))
		case evSpawnMM:
			m.serve(&m.pes[m.msgs[ev.rec].dst].mu, t, timing.MatchTime, evSpawnMU, ev.rec)
		case evSpawnMU:
			r := m.takeMsg(ev.rec)
			m.counts.TokensMatched++
			m.instantiate(m.pes[r.dst], r.child, t)
			m.pes[r.dst].wakeEU(t)
		}
		m.countEvent()
	}
	if m.failed != nil {
		return nil, m.failed
	}
	if rep := m.liveReport(); rep != "" {
		return nil, &DeadlockError{Report: rep}
	}
	end := m.now
	if m.horizon > end {
		end = m.horizon
	}
	res := &Result{Time: end, Counts: m.counts}
	res.PEs = make([]UnitStats, len(m.pes))
	for i, p := range m.pes {
		res.PEs[i] = UnitStats{EU: p.eu.busy, MU: p.mu.busy, MM: p.mm.busy, AM: p.am.busy, RU: p.ru.busy}
	}
	if m.mainResult != nil {
		v := *m.mainResult
		res.MainValue = &ReturnedValue{Kind: v.Kind.String(), I: v.I}
		if v.Kind == isa.KindFloat {
			res.MainValue.I, res.MainValue.F = 0, v.F()
		}
	}
	for _, p := range m.pes {
		res.Counts.DeferredReads += p.shard.DeferredReads
		res.Counts.CacheHits += p.shard.CacheHits
		res.Counts.CacheMisses += p.shard.CacheMisses
	}
	return res, nil
}

// eventLimit aborts a runaway (livelocked) simulation.
const eventLimit = 2_000_000_000

// countEvent counts one processed event against the event guard and
// reports whether the run may go on.
func (m *Machine) countEvent() bool {
	if m.nEvents++; m.nEvents > m.maxEvents {
		m.fail(fmt.Errorf("sim: exceeded %d events (livelock?)", m.maxEvents))
	}
	return m.failed == nil
}

func (m *Machine) newSPID() int64 {
	m.nextSP++
	m.sps = append(m.sps, nil)
	return m.nextSP
}

// newSP returns a blank instance of template ti, not yet known to any PE:
// a halted instance with a frame of the same length when there is one, every
// slot reset to absent so that nothing of its earlier life shows.
func (m *Machine) newSP(ti int, id int64) *spInst {
	c := &m.code[ti]
	if c.d == nil {
		c.tmpl = m.prog.Templates[ti]
		c.d = c.tmpl.Decoded()
		c.cost = make([]int64, len(c.d.Code))
		for pc := range c.tmpl.Code {
			c.cost[pc] = m.instrCost(&c.d.Code[pc])
		}
	}
	n := c.tmpl.NSlots
	var sp *spInst
	if n < len(m.freeSPs) && len(m.freeSPs[n]) > 0 {
		last := len(m.freeSPs[n]) - 1
		sp, m.freeSPs[n] = m.freeSPs[n][last], m.freeSPs[n][:last]
		clear(sp.frame)
	} else {
		sp = &spInst{frame: make([]isa.Value, n)}
	}
	sp.id, sp.code, sp.ti, sp.pc, sp.state, sp.blocked = id, c, int32(ti), 0, spReady, isa.None
	return sp
}

// instantiate makes sp a live, ready instance on p (state change only; the
// MM/MU service costs are charged by the spawn path).
func (m *Machine) instantiate(p *pe, sp *spInst, t int64) {
	sp.pe = p.id
	m.sps[sp.id] = sp
	p.ready.push(sp)
	m.counts.SPsCreated++
	if m.tracing {
		m.trace(t, p.id, "spawn SP#%d %q (ready)", sp.id, sp.code.tmpl.Name)
	}
}

// destroy removes a halted SP and keeps the instance for reuse. The table
// of free instances is indexed by frame length; it never outgrows one frame
// of the largest template.
func (m *Machine) destroy(sp *spInst) {
	m.sps[sp.id] = nil
	n := len(sp.frame)
	for len(m.freeSPs) <= n {
		m.freeSPs = append(m.freeSPs, nil)
	}
	m.freeSPs[n] = append(m.freeSPs[n], sp)
}

// deliver places a token value into slot of SP instance id, waking the
// instance if it was blocked (or stalled) on that slot. Instance 0 is the
// environment: its tokens become the program result.
func (m *Machine) deliver(t int64, id int64, slot int, v isa.Value) {
	if id == 0 {
		val := v
		m.mainResult = &val
		return
	}
	sp := m.sp(id)
	if sp == nil {
		m.fail(fmt.Errorf("sim: token for dead/unknown SP %d (slot %d)", id, slot))
		return
	}
	p := m.pes[sp.pe]
	if slot < 0 || slot >= len(sp.frame) {
		m.fail(fmt.Errorf("sim: token slot %d out of range for SP %d (%q)", slot, id, sp.code.tmpl.Name))
		return
	}
	sp.frame[slot] = v
	if sp.blocked != slot {
		return
	}
	switch sp.state {
	case spBlocked:
		sp.state = spReady
		sp.blocked = isa.None
		p.ready.push(sp)
		if m.tracing {
			m.trace(t, p.id, "unblock SP#%d %q (slot %d arrived)", sp.id, sp.code.tmpl.Name, slot)
		}
		p.wakeEU(t)
	case spStalled:
		sp.state = spRunning
		sp.blocked = isa.None
		if m.tracing {
			m.trace(t, p.id, "resume SP#%d %q (stall satisfied)", sp.id, sp.code.tmpl.Name)
		}
		p.wakeEU(t)
	}
}

// liveReport describes all live SPs (empty when none) for deadlock errors.
func (m *Machine) liveReport() string {
	var lines []string
	for _, sp := range m.sps {
		if sp == nil {
			continue
		}
		state := "ready"
		switch sp.state {
		case spRunning:
			state = "running"
		case spBlocked:
			state = fmt.Sprintf("blocked on slot %d", sp.blocked)
		case spStalled:
			state = fmt.Sprintf("stalled on slot %d", sp.blocked)
		}
		lines = append(lines, fmt.Sprintf("  PE%d SP#%d %q pc=%d %s (pe pending reads: %d)",
			sp.pe, sp.id, sp.code.tmpl.Name, sp.pc, state, m.pes[sp.pe].shard.PendingReads()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// sp returns the live SP instance with the given ID, or nil.
func (m *Machine) sp(id int64) *spInst {
	if id <= 0 || id >= int64(len(m.sps)) {
		return nil
	}
	return m.sps[id]
}

// ReadArray gathers a named array's contents from all shards after a run.
// Values never written are returned as NaN-free zeros with ok=false in mask.
func (m *Machine) ReadArray(name string) (vals []float64, mask []bool, dims []int, err error) {
	id, ok := m.byName[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("sim: unknown array %q", name)
	}
	h := m.pes[0].shard.Array(id).Header()
	n := h.Elems()
	vals = make([]float64, n)
	mask = make([]bool, n)
	for off := 0; off < n; off++ {
		if v, present := m.pes[h.OwnerOf(off)].shard.Peek(id, off); present {
			vals[off] = v.AsFloat()
			mask[off] = true
		}
	}
	return vals, mask, append([]int(nil), h.Dims...), nil
}

// ArrayNames lists allocated source-level array names in allocation order.
func (m *Machine) ArrayNames() []string { return append([]string(nil), m.nameSeq...) }
