package sim

import (
	"fmt"

	"repro/internal/isa"
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

// burst is euStep's interpreter loop over the decoded code. It is flat:
// pc, frame and code live in locals, operand presence is the slot's Kind,
// scalar and control instructions complete inline and only effect-class
// instructions (perform) can fail, halt the SP or end the burst. It returns
// the EU's local time and the number of instructions executed.
func (p *pe) burst(t int64, settled bool) (now, instrs int64) {
	m := p.m
	now = t
next:
	for {
		if m.failed != nil {
			p.euActive = false
			return
		}
		sp := p.cur
		if sp == nil {
			if p.ready.empty() {
				p.euActive = false
				if p.eu.free < now {
					p.eu.free = now
				}
				return
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
		d := sp.code.d
		code, costs, f, pc := d.Code, sp.code.cost, sp.frame, sp.pc
		missing := isa.None
	run:
		for {
			ins := &code[pc]
			cost := costs[pc]
			if ins.Class == isa.ClassScalar {
				a := f[ins.A]
				if a.Kind == isa.KindInvalid {
					missing = int(ins.A)
					break
				}
				var b isa.Value
				if ins.B != isa.None {
					if b = f[ins.B]; b.Kind == isa.KindInvalid {
						missing = int(ins.B)
						break
					}
				}
				if ins.Op >= isa.CMPLT && ins.Op <= isa.CMPNE && (a.Kind == isa.KindFloat || b.Kind == isa.KindFloat) {
					cost += floatCmpExtra
				}
				now += cost
				instrs++
				v, err := isa.EvalScalar(ins.Op, a, b)
				if err != nil {
					m.fail(fmt.Errorf("sim: SP %q pc %d: %v", sp.code.tmpl.Name, pc, err))
					continue next
				}
				f[ins.Dst] = v
				pc++
				settled = false
				continue
			}
			for _, s := range d.Inputs(ins) {
				if f[s].Kind == isa.KindInvalid {
					missing = s
					break run
				}
			}
			now += cost
			instrs++
			settled = false
			switch ins.Op {
			case isa.NOP:
			case isa.CONST:
				f[ins.Dst] = ins.Imm
			case isa.MOVE:
				f[ins.Dst] = f[ins.A]
			case isa.CLEAR:
				f[ins.Dst] = isa.Value{}
			case isa.SELF:
				f[ins.Dst] = isa.SPRef(sp.id)
			case isa.JUMP:
				pc = int(ins.Target) - 1
			case isa.BRFALSE, isa.BRTRUE:
				if f[ins.A].AsBool() == (ins.Op == isa.BRTRUE) {
					pc = int(ins.Target) - 1
				}
			default:
				sp.pc = pc
				halted, endBurst := p.perform(sp, ins, d.Args(ins), now)
				if halted || m.failed != nil {
					continue next
				}
				if !endBurst {
					break
				}
				sp.pc = pc + 1
				if slot := p.stallOn; slot != isa.None {
					// Control-driven baseline (§6): the EU waits out the
					// remote access instead of multithreading over it.
					p.stallOn = isa.None
					if f[slot].Kind == isa.KindInvalid {
						sp.state = spStalled
						sp.blocked = slot
						p.euActive = false
						if p.eu.free < now {
							p.eu.free = now
						}
						return
					}
				}
				m.at(now, evEU, int32(p.id))
				return
			}
			pc++
		}
		sp.pc = pc
		if !settled {
			// Re-schedule at the current time so that deliveries already
			// scheduled at virtual times ≤ now are applied before we decide
			// to block (the burst may have advanced past them). When nothing
			// is scheduled that early, the re-run would be the very next
			// event and find the same frame: it takes its turn right here.
			if len(m.events) > 0 && m.events[0].t <= now {
				m.at(now, evEUSettled, int32(p.id))
				return
			}
			m.seq++
			if m.now = now; !m.countEvent() {
				continue
			}
		}
		sp.blocked = missing
		sp.state = spBlocked
		if m.tracing {
			m.trace(now, p.id, "block SP#%d %q at pc %d on slot %d", sp.id, sp.code.tmpl.Name, pc, missing)
		}
		p.cur = nil // the context-switch charge happens when the next SP is picked
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

// perform executes an effect-class instruction at virtual time now (the time
// it completes on the EU); args are its Args slots. It returns whether the SP
// halted and whether the burst must end.
func (p *pe) perform(sp *spInst, ins *isa.DInstr, args []int, now int64) (halted, endBurst bool) {
	m := p.m
	switch ins.Op {
	case isa.ROWLO, isa.ROWHI, isa.COLLO, isa.COLHI, isa.UNIFLO, isa.UNIFHI:
		p.performOwnership(sp, ins)
	case isa.ALLOC, isa.ALLOCD:
		return false, p.performAlloc(sp, ins, args, now)
	case isa.AREAD:
		return false, p.performRead(sp, ins, args, now)
	case isa.AWRITE:
		p.performWrite(sp, ins, args, now)
		return false, true
	case isa.SPAWN, isa.SPAWND:
		p.performSpawn(sp, ins, args, now)
		return false, true
	case isa.SEND:
		p.performSend(sp, ins, args, now)
		return false, true
	case isa.HALT:
		if m.tracing {
			m.trace(now, p.id, "halt SP#%d %q", sp.id, sp.code.tmpl.Name)
		}
		p.cur = nil
		m.destroy(sp)
		m.serve(&p.mm, now, timing.ReleaseSPTime, evNone, 0)
		return true, false
	default: // the trap past the end of the code, or an opcode no case covers
		m.fail(fmt.Errorf("sim: SP %q pc %d: cannot execute %s", sp.code.tmpl.Name, sp.pc, ins.Op))
	}
	return false, false
}

// performOwnership answers Range-Filter queries against the local array
// header (§4.2.2): ROWLO/ROWHI (the rows this PE is responsible for),
// COLLO/COLHI (the owned part of row B) and UNIFLO/UNIFHI (this PE's block
// of [A, B]). Empty ownership yields an empty range (lo=1, hi=0) so the
// filtered loop executes zero iterations.
func (p *pe) performOwnership(sp *spInst, ins *isa.DInstr) {
	f := sp.frame
	var lo, hi int64
	if ins.Op == isa.UNIFLO || ins.Op == isa.UNIFHI {
		lo, hi = f[ins.A].AsInt(), f[ins.B].AsInt()
		n, pes, id := max(hi-lo+1, 0), int64(p.m.cfg.NumPEs), int64(p.id)
		lo, hi = lo+n*id/pes, lo+n*(id+1)/pes-1
	} else {
		a := p.array(f[ins.A].I)
		if a == nil {
			p.m.fail(fmt.Errorf("sim: SP %q pc %d: ownership query on unknown array", sp.code.tmpl.Name, sp.pc))
			return
		}
		var ok bool
		if ins.Op == isa.ROWLO || ins.Op == isa.ROWHI {
			lo, hi, ok = a.Header().OwnedRows(p.id)
		} else {
			lo, hi, ok = a.Header().OwnedCols(p.id, f[ins.B].AsInt())
		}
		if !ok {
			lo, hi = 1, 0
		}
	}
	if ins.Op == isa.ROWHI || ins.Op == isa.COLHI || ins.Op == isa.UNIFHI {
		lo = hi
	}
	f[ins.Dst] = isa.Int(lo)
}
