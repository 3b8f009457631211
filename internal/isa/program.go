package isa

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// SubscriptKind classifies how a loop body subscripts an array dimension
// relative to a loop index variable. The partitioner uses this to pick the
// Range-Filter dimension.
type SubscriptKind uint8

// Subscript kinds.
const (
	SubOther  SubscriptKind = iota // not an affine use of the loop variable
	SubAffine                      // var + Offset
)

// ArrayAccess summarizes one static array read or write inside a loop body
// (including nested blocks), as recorded by the translator for the
// partitioner's dependence-driven decisions.
type ArrayAccess struct {
	Array   string // source-level array name
	IsWrite bool
	Dims    []SubscriptKind // per-dimension classification w.r.t. LoopVar
	Offsets []int64         // per-dimension offset when SubAffine
	Vars    []string        // per-dimension loop variable name ("" if none)
}

// LoopInfo describes the for-loop structure of an SP template so the
// partitioner can install a Range Filter without re-deriving control flow.
// All fields are code indices or slot indices into the template.
type LoopInfo struct {
	Var string // loop variable source name

	VarSlot   int // frame slot holding the loop variable
	InitEnd   int // code index just past the instructions computing the initial value
	LimitSlot int // frame slot holding the loop limit
	LimitEnd  int // code index just past the instructions computing the limit

	Descending bool // "for v = hi downto lo"

	// IsWhile marks a condition-controlled loop (no index variable, no
	// bounds); while loops are never distributed — their iteration space
	// is not enumerable in advance.
	IsWhile bool

	// NCarried is the number of loop-carried scalars (`next` variables) —
	// each is a loop-carried dependence regardless of whether its final
	// value is consumed.
	NCarried int

	// HasLCD is set by the partitioner after dependence analysis; it is
	// recorded here so listings and tests can inspect the decision.
	HasLCD bool

	// Accesses lists the array reads/writes in the loop body subtree.
	Accesses []ArrayAccess
}

// TemplateKind distinguishes what source construct an SP template encodes.
type TemplateKind uint8

// Template kinds.
const (
	TmplFunc TemplateKind = iota + 1 // function body code block
	TmplLoop                         // one for/while nest level
	TmplMain                         // program entry block
)

func (k TemplateKind) String() string {
	switch k {
	case TmplFunc:
		return "func"
	case TmplLoop:
		return "loop"
	case TmplMain:
		return "main"
	default:
		return "?"
	}
}

// Template is the code for one SP: a code block of the original dataflow
// graph turned into a sequential instruction list with a frame of operand
// slots. Instances of a template are created whenever the corresponding
// L/LD operator fires.
type Template struct {
	ID   int
	Name string
	Kind TemplateKind

	Code   []Instr
	NSlots int

	// NParams is the number of leading frame slots filled by spawn
	// arguments; every other slot starts absent.
	NParams int

	// HasResult marks a template that SENDs result value(s) to a caller
	// continuation; its final two params are the caller's SP reference and
	// the base destination slot index.
	HasResult bool

	// NResults is the number of values the template SENDs back (0 when
	// !HasResult).
	NResults int

	// Names maps source-level names (arrays, scalars, loop variables)
	// visible in this template to their frame slots; used by the
	// partitioner to locate Range-Filter operands and by listings.
	Names map[string]int

	// Loop is non-nil for TmplLoop templates.
	Loop *LoopInfo

	// Distributed marks a template that the partitioner decided to spawn
	// via LD with a Range Filter installed.
	Distributed bool

	// RFKind records which Range-Filter form the partitioner installed
	// (for listings, tests and ablation reporting).
	RFKind RFKind

	// RFArray is the array whose header drives the Range Filter.
	RFArray string

	// decoded is the execution form of Code, built once by Decoded.
	decodeOnce sync.Once
	decoded    *Decoded
}

// RFKind enumerates the Range-Filter forms of §4.2.2–4.2.3.
type RFKind uint8

// Range-Filter kinds.
const (
	RFNone    RFKind = iota // not distributed
	RFRow                   // dim-0 subrange via first-element row ownership
	RFCol                   // dim-1 subrange within the owned part of a fixed row
	RFUniform               // uniform block split of the index range
)

func (k RFKind) String() string {
	switch k {
	case RFRow:
		return "row"
	case RFCol:
		return "col"
	case RFUniform:
		return "uniform"
	default:
		return "none"
	}
}

// Listing renders a human-readable disassembly of the template.
func (t *Template) Listing() string {
	var b strings.Builder
	dist := ""
	if t.Distributed {
		dist = " [distributed]"
	}
	fmt.Fprintf(&b, "%s #%d %q params=%d slots=%d%s\n", t.Kind, t.ID, t.Name, t.NParams, t.NSlots, dist)
	for i := range t.Code {
		fmt.Fprintf(&b, "  %3d: %s\n", i, t.Code[i].String())
	}
	return b.String()
}

// Operand fields an opcode cannot execute without.
const (
	needDst = 1 << iota
	needA
	needB
)

// operandShape returns which of Dst/A/B an opcode dereferences
// unconditionally; Validate rejects an instruction that leaves one None.
func operandShape(op Opcode) uint8 {
	switch op {
	case NOP, JUMP, HALT, SPAWN, SPAWND:
		return 0
	case CONST, CLEAR, SELF, ALLOC, ALLOCD:
		return needDst
	case BRFALSE, BRTRUE:
		return needA
	case MOVE, INEG, FNEG, FABS, FSQRT, NOT, ITOF, FTOI, ROWLO, ROWHI, AREAD:
		return needDst | needA
	case AWRITE, SEND:
		return needA | needB
	}
	return needDst | needA | needB // binary scalar ops, COLLO/COLHI, UNIFLO/UNIFHI
}

// takesArgs reports whether an opcode reads its Args list (array extents
// or indices, spawn parameters, SEND's base slot). Anywhere else a
// non-empty list would only be operands some executor waits on for nothing.
func takesArgs(op Opcode) bool {
	switch op {
	case ALLOC, ALLOCD, AREAD, AWRITE, SPAWN, SPAWND, SEND:
		return true
	}
	return false
}

// Validate checks structural well-formedness, and is the one gate the
// executors (and the decoded form) rely on: after it passes, no slot
// operand, branch target or spawn immediate of the template can index out
// of range. Every error names the template and, where one applies, the pc.
func (t *Template) Validate(prog *Program) error {
	if t.NParams < 0 || t.NParams > t.NSlots || t.NSlots > math.MaxInt32 {
		return fmt.Errorf("template %q: %d params, %d slots", t.Name, t.NParams, t.NSlots)
	}
	n := len(t.Code)
	if n == 0 || n >= math.MaxInt32 {
		return fmt.Errorf("template %q: %d instructions", t.Name, n)
	}
	if last := t.Code[n-1].Op; last != HALT && last != JUMP {
		return fmt.Errorf("template %q pc %d: code ends in %s, not HALT or JUMP", t.Name, n-1, last)
	}
	// ok reports whether a slot operand is in range; None passes only where
	// the opcode does not need the operand.
	ok := func(slot int, need bool) bool {
		return slot >= 0 && slot < t.NSlots || slot == None && !need
	}
	slotErr := func(pc int, what string, slot int) error {
		return fmt.Errorf("template %q pc %d: %s slot %d out of range [0,%d)", t.Name, pc, what, slot, t.NSlots)
	}
	for pc := range t.Code {
		in := &t.Code[pc]
		if in.Op == 0 || int(in.Op) >= NumOpcodes {
			return fmt.Errorf("template %q pc %d: invalid opcode %d", t.Name, pc, in.Op)
		}
		shape := operandShape(in.Op)
		if !ok(in.Dst, shape&needDst != 0) {
			return slotErr(pc, "dst", in.Dst)
		}
		if !ok(in.A, shape&needA != 0) {
			return slotErr(pc, "A", in.A)
		}
		if !ok(in.B, shape&needB != 0) {
			return slotErr(pc, "B", in.B)
		}
		if len(in.Args) > math.MaxUint16-2 || len(in.Args) > 0 && !takesArgs(in.Op) {
			return fmt.Errorf("template %q pc %d: %s with %d args", t.Name, pc, in.Op, len(in.Args))
		}
		for _, a := range in.Args {
			if !ok(a, true) {
				return slotErr(pc, "arg", a)
			}
		}
		switch in.Op {
		case JUMP, BRFALSE, BRTRUE:
			if in.Target < 0 || in.Target >= n {
				return fmt.Errorf("template %q pc %d: jump target %d out of range [0,%d)", t.Name, pc, in.Target, n)
			}
		case SPAWN, SPAWND:
			if prog == nil || prog.Template(int(in.Imm.I)) == nil {
				return fmt.Errorf("template %q pc %d: spawn of unknown template %d", t.Name, pc, in.Imm.I)
			}
		case AREAD, AWRITE:
			if len(in.Args) < 1 || len(in.Args) > 2 {
				return fmt.Errorf("template %q pc %d: %s with %d index args, want 1 or 2", t.Name, pc, in.Op, len(in.Args))
			}
		case CONST:
			if in.Imm.Kind == KindInvalid || in.Imm.Kind > KindSP {
				return fmt.Errorf("template %q pc %d: CONST immediate of invalid kind %d", t.Name, pc, in.Imm.Kind)
			}
		}
	}
	if l := t.Loop; l != nil {
		if !ok(l.VarSlot, false) || !ok(l.LimitSlot, false) {
			return fmt.Errorf("template %q: loop slots %d/%d out of range [0,%d)", t.Name, l.VarSlot, l.LimitSlot, t.NSlots)
		}
	}
	return nil
}

// Program is a complete translated (and possibly partitioned) PODS program:
// a set of SP templates plus the entry template.
type Program struct {
	Templates []*Template
	EntryID   int

	// ArrayDims records the declared dimensionality of each source-level
	// array name, for diagnostics and the partitioner.
	ArrayDims map[string]int
}

// Template returns the template with the given ID, or nil.
func (p *Program) Template(id int) *Template {
	if id < 0 || id >= len(p.Templates) {
		return nil
	}
	return p.Templates[id]
}

// TemplateName returns the name of the template with the given ID, or ""
// — the labeller trace exports take.
func (p *Program) TemplateName(id int64) string {
	if t := p.Template(int(id)); t != nil {
		return t.Name
	}
	return ""
}

// Entry returns the entry template.
func (p *Program) Entry() *Template { return p.Template(p.EntryID) }

// EntryArgs checks a run's arguments against the entry template and
// returns its spawn frame: the arguments, and for a result-returning entry
// the continuation SPRef(0), slot 0, the reserved destination every
// backend reads the run's result from. args is never modified.
func (p *Program) EntryArgs(args []Value) ([]Value, error) {
	entry := p.Entry()
	want := entry.NParams
	if entry.HasResult {
		want -= 2
	}
	if len(args) != want {
		return nil, fmt.Errorf("entry %q wants %d args, got %d", entry.Name, want, len(args))
	}
	if entry.HasResult {
		args = append(append([]Value{}, args...), SPRef(0), Int(0))
	}
	return args, nil
}

// Validate checks every template, and that each sits at the index its ID
// names: spawns (and the cluster's spawn messages) resolve a template by ID.
func (p *Program) Validate() error {
	if p.Entry() == nil {
		return fmt.Errorf("program: entry template %d missing", p.EntryID)
	}
	for i, t := range p.Templates {
		if t == nil {
			return fmt.Errorf("program: template %d is nil", i)
		}
		if t.ID != i {
			return fmt.Errorf("template %q: ID %d at index %d", t.Name, t.ID, i)
		}
		if err := t.Validate(p); err != nil {
			return err
		}
	}
	return nil
}

// Listing renders the whole program.
func (p *Program) Listing() string {
	var b strings.Builder
	for _, t := range p.Templates {
		b.WriteString(t.Listing())
		b.WriteByte('\n')
	}
	return b.String()
}
