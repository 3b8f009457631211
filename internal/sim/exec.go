package sim

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/istructure"
	"repro/internal/timing"
)

// wakeEU ensures an EU stepping chain is active at or after time t. If a
// chain is already active it will observe the new work itself.
func (p *pe) wakeEU(t int64) {
	if p.euActive {
		return
	}
	p.euActive = true
	p.m.at(max(t, p.eu.free), evEU, int32(p.id))
}

// euStep executes instructions for the current SP starting at time t.
//
// The EU runs *bursts* of pure instructions (and local present array reads)
// inside a single event; any instruction with an external effect ends the
// burst so that functional-unit occupancy stays causally ordered. When an
// operand slot is absent, the EU first re-schedules itself at the current
// time with settled=true so that all already-scheduled deliveries at earlier
// virtual times are applied; if the operand is still absent on the settled
// attempt, the SP blocks ("the SP is blocked and the PE switches to another
// ready SP", §3) — or, in the control-driven baseline, the EU stalls.
//
// Everything a step adds to the EU's local time — instruction costs and
// context switches — is EU busy time, so both totals are settled once here.
func (p *pe) euStep(t int64, settled bool) {
	now, instrs := p.burst(t, settled)
	p.eu.busy += now - t
	p.m.counts.Instructions += instrs
}

// burst is euStep's scheduling loop: it picks SPs off the ready queue and
// runs each on the shared executor (isa.Run) with the EU's local time as
// the executor's clock and the template's cost table, until the burst ends.
// It returns the EU's local time and the number of instructions executed.
func (p *pe) burst(t int64, settled bool) (now, instrs int64) {
	m, x := p.m, &p.x
	now = t
	for m.failed == nil {
		sp := p.cur
		if sp == nil {
			if p.ready.empty() {
				break
			}
			sp = p.ready.pop()
			p.cur = sp
			sp.state = spRunning
			if !m.cfg.ZeroOverhead {
				now += timing.ContextSwitchTime
			}
			m.counts.CtxSwitches++
			settled = false
		}
		x.Decoded, x.Cost, x.F, x.PC, x.Self, x.Now, x.N = sp.code.d, sp.code.cost, sp.frame, sp.pc, sp.id, now, 0
		st := isa.Run(x)
		now, instrs, sp.pc = x.Now, instrs+x.N, x.PC
		if x.N > 0 {
			settled = false
		}
		switch st {
		case isa.Halt:
			instrs++ // HALT executes, then the SP is gone
			if m.tracing {
				m.trace(now, p.id, "halt SP#%d %q", sp.id, sp.code.tmpl.Name)
			}
			p.cur = nil
			m.destroy(sp)
			m.serve(&p.mm, now, timing.ReleaseSPTime, evNone, 0)
		case isa.Fault:
			m.fail(fmt.Errorf("sim: SP %q %w", sp.code.tmpl.Name, x.Err))
		case isa.End:
			if slot := p.stallOn; slot != isa.None {
				// Control-driven baseline (§6): the EU waits out the
				// remote access instead of multithreading over it.
				p.stallOn = isa.None
				if sp.frame[slot].Kind == isa.KindInvalid {
					sp.state = spStalled
					sp.blocked = slot
					p.park(now)
					return
				}
			}
			m.at(now, evEU, int32(p.id))
			return
		case isa.Block:
			if !settled {
				// Re-schedule at the current time so that deliveries already
				// scheduled at virtual times ≤ now are applied before we decide
				// to block (the burst may have advanced past them). When nothing
				// is scheduled that early, the re-run would be the very next
				// event and find the same frame: it takes its turn right here.
				if m.events.due(now) {
					m.at(now, evEUSettled, int32(p.id))
					return
				}
				if m.now = now; !m.countEvent() {
					continue
				}
			}
			sp.blocked = x.Blocked
			sp.state = spBlocked
			if m.tracing {
				m.trace(now, p.id, "block SP#%d %q at pc %d on slot %d", sp.id, sp.code.tmpl.Name, sp.pc, sp.blocked)
			}
			p.cur = nil // the context-switch charge happens when the next SP is picked
		}
		// isa.Suspend: the effect failed the run.
	}
	p.park(now)
	return
}

// park ends the EU's stepping chain at local time now.
func (p *pe) park(now int64) {
	p.euActive = false
	if p.eu.free < now {
		p.eu.free = now
	}
}

// floatCmpExtra is what a comparison costs beyond the table's integer
// compare when either operand is a float — the one EU time that depends on
// run-time values.
const floatCmpExtra = timing.FCmpTime - timing.IntCmpTime

// instrCost returns the EU time of ins (comparisons as integer compares).
// In ZeroOverhead mode (the §5.3.4 hand-written-sequential stand-in) the
// PODS control machinery — spawns, sends, continuation plumbing, Range
// Filters — costs nothing: a compiled sequential program has none of it.
func (m *Machine) instrCost(ins *isa.DInstr) int64 {
	cost := timing.InstrTime(ins.Op, false)
	if m.cfg.ZeroOverhead {
		switch ins.Op {
		case isa.SPAWN, isa.SPAWND, isa.SEND, isa.SELF, isa.CLEAR, isa.HALT,
			isa.ALLOC, isa.ALLOCD, isa.NOP,
			isa.ROWLO, isa.ROWHI, isa.COLLO, isa.COLHI, isa.UNIFLO, isa.UNIFHI:
			return 0
		}
		return cost
	}
	// SP operand slots live in Execution Memory (§3): every executed
	// instruction reads its operands from slots and stores its result
	// back, unlike register-allocated compiled code. Charge one memory
	// reference per operand and per result.
	cost += int64(ins.NIn) * timing.MemReadTime
	if ins.Dst != isa.None {
		cost += timing.MemWriteTime
	}
	return cost
}

// Effect performs an effect-class instruction of the current SP for the
// executor, at virtual time x.Now (the time it completes on the EU). A local
// present read and a Range-Filter query let the burst go on; anything else
// that reaches another unit ends it.
func (p *pe) Effect(x *isa.Exec, ins *isa.DInstr) isa.Step {
	m, sp, now, args := p.m, p.cur, x.Now, x.Args(ins)
	sp.pc = x.PC
	st := isa.End
	switch ins.Op {
	case isa.ROWLO, isa.ROWHI, isa.COLLO, isa.COLHI, isa.UNIFLO, isa.UNIFHI:
		p.performOwnership(sp, ins)
		st = isa.Next
	case isa.ALLOC, isa.ALLOCD:
		st = p.performAlloc(sp, ins, args, now)
	case isa.AREAD:
		st = p.performRead(sp, ins, args, now)
	case isa.AWRITE:
		p.performWrite(sp, ins, args, now)
	case isa.SPAWN, isa.SPAWND:
		p.performSpawn(sp, ins, args, now)
	case isa.SEND:
		p.performSend(sp, ins, args, now)
	}
	if m.failed != nil {
		return isa.Suspend
	}
	return st
}

// performOwnership answers a Range-Filter query against the local array
// header (§4.2.2); the uniform filter needs no array.
func (p *pe) performOwnership(sp *spInst, ins *isa.DInstr) {
	f := sp.frame
	var h *istructure.Header
	if ins.Op != isa.UNIFLO && ins.Op != isa.UNIFHI {
		a := p.shard.Array(f[ins.A].I)
		if a == nil {
			p.m.fail(fmt.Errorf("sim: SP %q pc %d: ownership query on unknown array", sp.code.tmpl.Name, sp.pc))
			return
		}
		h = a.Header()
	}
	f[ins.Dst] = isa.Int(istructure.RangeFilter(ins, f, h, p.id, p.m.cfg.NumPEs, nil))
}
