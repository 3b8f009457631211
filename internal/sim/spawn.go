package sim

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/timing"
)

// performSpawn implements the L operator (local spawn) and the distributing
// L operator LD (§4.2.1): "In the case of LD, the same data value is
// replicated and routed to all PEs, thus causing an instance of an identical
// SP to be spawned on every PE."
//
// A spawn charges the Memory Manager (load SP, build PCB) and the Matching
// Unit (register the new SP's entry) on the target PE; remote spawns
// additionally pay one small message through the Routing Unit and network.
// The child's frame is filled here, straight from the spawner's; the
// instance travels in the msg and becomes live when the MU is done.
func (p *pe) performSpawn(sp *spInst, ins *isa.DInstr, args []int, now int64) {
	m := p.m
	ti := int(ins.Imm.I)
	tmpl := m.prog.Templates[ti] // Validate checked the ID
	if len(args) != tmpl.NParams {
		m.fail(fmt.Errorf("sim: template %q spawned with %d args, wants %d", tmpl.Name, len(args), tmpl.NParams))
		return
	}
	targets := m.pes[p.id : p.id+1]
	if ins.Op == isa.SPAWND && !m.cfg.ZeroOverhead {
		targets = m.pes
	}
	for _, target := range targets {
		child := m.newSP(ti, m.newSPID())
		for i, a := range args {
			child.frame[i] = sp.frame[a]
		}
		if m.cfg.ZeroOverhead {
			m.instantiate(target, child, now)
			target.wakeEU(now)
			continue
		}
		// MM (frame/PCB creation), then MU (matching-table entry), on the
		// target PE.
		r := msg{kind: evSpawnMM, unit: &target.mm, dst: int32(target.id), child: child,
			flight: timing.NetworkTime, dur: timing.ActivateSPTime}
		if target == p {
			m.serve(&p.mm, now, r.dur, evSpawnMM, m.newMsg(r))
			continue
		}
		m.counts.SmallMsgs++
		m.counts.SPsRemote++
		m.send(p, now, r)
	}
}

// performSend implements inter-SP tokens (loop results, function returns).
// The token goes through the destination PE's Matching Unit ("only tokens
// exchanged between different SPs go through the Matching Unit", §5.1).
func (p *pe) performSend(sp *spInst, ins *isa.DInstr, args []int, now int64) {
	m := p.m
	val := sp.frame[ins.B]
	slot := ins.Imm.I
	if len(args) > 0 {
		slot += sp.frame[args[0]].AsInt()
	}
	id := sp.frame[ins.A].I // an SP reference: the executor checked
	if id == 0 || m.cfg.ZeroOverhead {
		// The environment continuation (the program result) has no machine
		// cost, and a sequential program has no matching at all.
		m.deliver(now, id, int(slot), val)
		return
	}
	target := m.sp(id)
	if target == nil {
		m.fail(fmt.Errorf("sim: SP %q pc %d: token for dead SP %d", sp.code.tmpl.Name, sp.pc, id))
		return
	}
	r := msg{kind: evToken, unit: &m.pes[target.pe].mu, sp: id, slot: int(slot), val: val,
		flight: timing.NetworkTime, dur: timing.MatchTime}
	if target.pe == p.id {
		m.serve(&p.mu, now, r.dur, evToken, m.newMsg(r))
		return
	}
	m.counts.SmallMsgs++
	m.send(p, now, r)
}
