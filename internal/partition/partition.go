// Package partition implements the PODS Partitioner (paper §4.2): it
// rewrites translated SP templates for distributed execution by
//
//  1. converting array allocations into distributing allocates (§4.1),
//  2. converting the L operator of each distributed loop into the
//     distributing L operator LD (§4.2.1), and
//  3. installing exactly one Range Filter per loop nest (§4.2.2–4.2.3) at
//     the outermost level that has no loop-carried dependency, rewriting
//     the index generation as init = max(init, start_range) and
//     limit = min(limit, end_range) (Figure 5).
//
// The for-loop distribution algorithm follows §4.2.4: walk each nest
// depth-first; levels with LCDs stay centralized and the walk descends;
// the first LCD-free level that writes a distributed array is distributed
// and everything below it stays local with no further RFs.
package partition

import (
	"fmt"

	"repro/internal/dep"
	"repro/internal/isa"
)

// Options controls partitioning.
type Options struct {
	// DisableDistribution leaves the program fully centralized (used for
	// ablation benchmarks); allocations still become ALLOCD so memory
	// layout matches, but no loop is distributed.
	DisableDistribution bool
}

// Partition rewrites prog in place and returns a report of the decisions.
func Partition(prog *isa.Program, opts Options) (*Report, error) {
	rep := &Report{}
	for _, t := range prog.Templates {
		for pc := range t.Code {
			if t.Code[pc].Op == isa.ALLOC {
				t.Code[pc].Op = isa.ALLOCD
				rep.DistributedAllocs++
			}
		}
	}

	// Record LCD status on every loop template.
	for _, t := range prog.Templates {
		if t.Loop == nil {
			continue
		}
		t.Loop.HasLCD = t.Loop.IsWhile ||
			dep.HasLCD(t.Loop.Var, t.Loop.Accesses, t.Loop.NCarried > 0)
	}
	if opts.DisableDistribution {
		return rep, nil
	}

	// parentSpawns[child] = list of (template, pc) sites spawning child.
	parentSpawns := make(map[int][]spawnSite)
	for _, t := range prog.Templates {
		for pc := range t.Code {
			in := &t.Code[pc]
			if in.Op == isa.SPAWN || in.Op == isa.SPAWND {
				parentSpawns[int(in.Imm.I)] = append(parentSpawns[int(in.Imm.I)], spawnSite{t, pc})
			}
		}
	}
	// children[t] = templates spawned (directly) from template t, in code
	// order, deduplicated.
	children := make(map[int][]int)
	for _, t := range prog.Templates {
		seen := map[int]bool{}
		for pc := range t.Code {
			in := &t.Code[pc]
			if in.Op == isa.SPAWN || in.Op == isa.SPAWND {
				child := int(in.Imm.I)
				if prog.Template(child) != nil && !seen[child] {
					seen[child] = true
					children[t.ID] = append(children[t.ID], child)
				}
			}
		}
	}

	// Depth-first distribution per §4.2.4 from the entry template. The walk
	// crosses function calls so that a loop inside a function invoked from
	// an already-distributed loop body stays local (everything below the
	// single RF runs on one PE). A template reached from two contexts keeps
	// its first (outermost-first) decision. The walk threads the set of
	// enclosing loop variables so in-row Range Filters only key on indices
	// that are actually fixed by an outer level.
	var walk func(id int, outer map[string]bool) error
	visited := map[int]bool{}
	walk = func(id int, outer map[string]bool) error {
		if visited[id] {
			return nil
		}
		visited[id] = true
		t := prog.Template(id)
		if t.Kind == isa.TmplLoop && !t.Loop.HasLCD && !t.Loop.IsWhile {
			if choice, ok := dep.ChooseRF(t.Loop.Var, t.Loop.Accesses, outer); ok {
				applied, err := distribute(t, choice, parentSpawns[id])
				if err != nil {
					return err
				}
				if applied {
					rep.Distributed = append(rep.Distributed, Decision{
						Template: t.Name, Var: t.Loop.Var,
						Kind: t.RFKind, Array: t.RFArray,
					})
					markLocal(prog, children, visited, id)
					return nil // one RF per nest: do not descend
				}
			}
		}
		if t.Kind == isa.TmplLoop && t.Loop.HasLCD {
			rep.Serial = append(rep.Serial, Decision{Template: t.Name, Var: t.Loop.Var})
		}
		inner := outer
		if t.Kind == isa.TmplLoop {
			inner = make(map[string]bool, len(outer)+1)
			for k := range outer {
				inner[k] = true
			}
			inner[t.Loop.Var] = true
		}
		for _, c := range children[id] {
			if err := walk(c, inner); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(prog.EntryID, map[string]bool{}); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("partition: produced invalid program: %w", err)
	}
	return rep, nil
}

type spawnSite struct {
	t  *isa.Template
	pc int
}

// markLocal marks the whole subtree below a distributed loop as visited so
// no deeper level acquires a second Range Filter.
func markLocal(prog *isa.Program, children map[int][]int, visited map[int]bool, id int) {
	for _, c := range children[id] {
		if !visited[c] {
			visited[c] = true
			markLocal(prog, children, visited, c)
		}
	}
}

// Decision records one partitioning choice for reporting and tests.
type Decision struct {
	Template string
	Var      string
	Kind     isa.RFKind
	Array    string
}

// Report summarizes what the partitioner did.
type Report struct {
	DistributedAllocs int
	Distributed       []Decision // loops given an RF + LD
	Serial            []Decision // loops kept serial due to LCDs
}

// String renders the report.
func (r *Report) String() string {
	s := fmt.Sprintf("partition: %d distributing allocates\n", r.DistributedAllocs)
	for _, d := range r.Distributed {
		s += fmt.Sprintf("  distribute %s over %s (RF=%s on %q)\n", d.Template, d.Var, d.Kind, d.Array)
	}
	for _, d := range r.Serial {
		s += fmt.Sprintf("  serialize  %s (LCD at %s)\n", d.Template, d.Var)
	}
	return s
}

// distribute installs the Range Filter into t and flips its parents' spawn
// sites to LD. Returns false (without modifying anything) when the template
// lacks the slots the filter needs (e.g. the keyed array is not visible).
func distribute(t *isa.Template, choice dep.RFChoice, parents []spawnSite) (bool, error) {
	if t.NResults > 0 {
		return false, fmt.Errorf("partition: template %q has results but no LCD was detected", t.Name)
	}
	li := t.Loop

	arrSlot := isa.None
	outerSlot := isa.None
	switch choice.Kind {
	case isa.RFRow:
		s, ok := t.Names[choice.Array]
		if !ok {
			return false, nil
		}
		arrSlot = s
	case isa.RFCol:
		s, ok := t.Names[choice.Array]
		if !ok {
			return false, nil
		}
		arrSlot = s
		os, ok := t.Names[choice.Outer]
		if !ok {
			// The outer index is not visible here; fall back to a uniform split.
			choice = dep.RFChoice{Kind: isa.RFUniform}
		} else {
			outerSlot = os
		}
	}

	loSlot := t.NSlots
	hiSlot := t.NSlots + 1
	t.NSlots += 2

	mkOwn := func(op isa.Opcode, dst int) isa.Instr {
		in := isa.NewInstr(op)
		in.Dst, in.A, in.B = dst, arrSlot, outerSlot
		in.Comment = "RF"
		return in
	}
	mkClamp := func(op isa.Opcode, target, bound int) isa.Instr {
		in := isa.NewInstr(op)
		in.Dst, in.A, in.B = target, target, bound
		in.Comment = "RF clamp"
		return in
	}
	mkMove := func(dst, src int) isa.Instr {
		in := isa.NewInstr(isa.MOVE)
		in.Dst, in.A = dst, src
		in.Comment = "RF"
		return in
	}

	loOp, hiOp := isa.ROWLO, isa.ROWHI
	if choice.Kind == isa.RFCol {
		loOp, hiOp = isa.COLLO, isa.COLHI
	}

	var atInit, atLimit []isa.Instr
	switch choice.Kind {
	case isa.RFRow, isa.RFCol:
		if !li.Descending {
			// init = max(init, start_range); limit = min(limit, end_range).
			atInit = []isa.Instr{mkOwn(loOp, loSlot), mkClamp(isa.MAX, li.VarSlot, loSlot)}
			atLimit = []isa.Instr{mkOwn(hiOp, hiSlot), mkClamp(isa.MIN, li.LimitSlot, hiSlot)}
		} else {
			// Descending: the operators are interchanged (§4.2.2).
			atInit = []isa.Instr{mkOwn(hiOp, hiSlot), mkClamp(isa.MIN, li.VarSlot, hiSlot)}
			atLimit = []isa.Instr{mkOwn(loOp, loSlot), mkClamp(isa.MAX, li.LimitSlot, loSlot)}
		}
	case isa.RFUniform:
		// Needs both bounds: insert everything after the limit section.
		mk := func(op isa.Opcode, dst, a, b int) isa.Instr {
			in := isa.NewInstr(op)
			in.Dst, in.A, in.B = dst, a, b
			in.Comment = "RF uniform"
			return in
		}
		if !li.Descending {
			atLimit = []isa.Instr{
				mk(isa.UNIFLO, loSlot, li.VarSlot, li.LimitSlot),
				mk(isa.UNIFHI, hiSlot, li.VarSlot, li.LimitSlot),
				mkMove(li.VarSlot, loSlot),
				mkMove(li.LimitSlot, hiSlot),
			}
		} else {
			atLimit = []isa.Instr{
				mk(isa.UNIFLO, loSlot, li.LimitSlot, li.VarSlot),
				mk(isa.UNIFHI, hiSlot, li.LimitSlot, li.VarSlot),
				mkMove(li.VarSlot, hiSlot),
				mkMove(li.LimitSlot, loSlot),
			}
		}
	default:
		return false, fmt.Errorf("partition: template %q: unsupported RF kind", t.Name)
	}

	// Insert the limit-section filter first (higher index), then the
	// init-section filter, so recorded positions stay valid.
	insertCode(t, li.LimitEnd, atLimit)
	if len(atInit) > 0 {
		insertCode(t, li.InitEnd, atInit)
	}

	for _, p := range parents {
		p.t.Code[p.pc].Op = isa.SPAWND
	}
	t.Distributed = true
	t.RFKind = choice.Kind
	t.RFArray = choice.Array
	return true, nil
}

// insertCode splices ins into t.Code at index `at`, shifting jump targets
// and recorded loop positions.
func insertCode(t *isa.Template, at int, ins []isa.Instr) {
	n := len(ins)
	t.Code = append(t.Code[:at], append(append([]isa.Instr{}, ins...), t.Code[at:]...)...)
	for pc := range t.Code {
		if pc >= at && pc < at+n {
			continue // freshly inserted
		}
		in := &t.Code[pc]
		if in.Op.IsBranch() && in.Target >= at {
			in.Target += n
		}
	}
	if t.Loop != nil {
		if t.Loop.InitEnd >= at {
			t.Loop.InitEnd += n
		}
		if t.Loop.LimitEnd >= at {
			t.Loop.LimitEnd += n
		}
	}
}
