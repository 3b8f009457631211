package isa

// Class groups opcodes by what executing one can touch, so an interpreter
// loop decides once per instruction how much checking it owes afterwards.
type Class uint8

// Instruction classes. The zero class is the trap: the sentinel a decoded
// template carries one past its last instruction. Every class from
// ClassScalar up is a scalar instruction. decode gives a pair class to one
// whose successor reads only its result or nothing, so that the successor
// needs no presence check and cannot fail, and Run executes the two in one
// dispatch.
const (
	ClassTrap       Class = iota
	ClassControl          // NOP/CONST/MOVE/CLEAR/SELF and branches: frame and pc only, cannot fail
	ClassEffect           // I-structure access, allocation, Range-Filter queries, SPAWN/SPAWND/SEND/HALT: may suspend, send or fail
	ClassScalar           // EvalScalar ops: frame in, frame out; only IDIV/IMOD can fail
	ClassPairBranch       // scalar, then BRTRUE/BRFALSE on its Dst
	ClassPairMove         // scalar, then MOVE from its Dst
	ClassPairJump         // scalar, then JUMP
)

// ClassOf returns the class of a defined opcode (ClassTrap for anything
// else).
func ClassOf(op Opcode) Class {
	switch {
	case IsScalar(op):
		return ClassScalar
	case op == NOP, op == CONST, op == MOVE, op == CLEAR, op == SELF, op.IsBranch():
		return ClassControl
	case op == ALLOC, op == ALLOCD, op == AREAD, op == AWRITE,
		op == ROWLO, op == ROWHI, op == COLLO, op == COLHI, op == UNIFLO, op == UNIFHI,
		op == SPAWN, op == SPAWND, op == SEND, op == HALT:
		return ClassEffect
	}
	return ClassTrap
}

// DInstr is one instruction in decoded form: everything an interpreter
// needs per dispatch in 40 bytes, against Instr's ~96 (which also carries
// the listing comment and a slice header). Slot operands are int32 (None
// stays -1). The instruction's input slots — A, B, then Args, in the order
// operand presence is checked — are Decoded.Slots[In : In+NIn].
type DInstr struct {
	Op     Opcode
	Class  Class
	NIn    uint16
	Dst    int32
	A, B   int32
	In     int32
	Target int32
	Imm    Value
}

// Decoded is a template's code resolved once for execution. Code has one
// more entry than the template: a trailing ClassTrap instruction, so an
// interpreter needs no per-instruction pc range check — running off the
// end, or branching to a target Validate would have rejected, lands on the
// trap.
type Decoded struct {
	Code  []DInstr
	Slots []int
}

// Inputs returns every input slot of in (A, B, Args), in presence-check
// order.
func (d *Decoded) Inputs(in *DInstr) []int {
	return d.Slots[in.In : in.In+int32(in.NIn)]
}

// Args returns the Args list of in: its inputs past A and B.
func (d *Decoded) Args(in *DInstr) []int {
	lo := in.In
	if in.A != None {
		lo++
	}
	if in.B != None {
		lo++
	}
	return d.Slots[lo : in.In+int32(in.NIn)]
}

// Decoded returns the template's decoded code, building it on first use.
// Every executor of one *Template shares the result, so a fleet's jobs that
// share a *Program decode once. The template must have passed Validate and
// its Code must not change afterwards.
func (t *Template) Decoded() *Decoded {
	t.decodeOnce.Do(func() { t.decoded = decode(t) })
	return t.decoded
}

func decode(t *Template) *Decoded {
	n := len(t.Code)
	nslots := 0
	for i := range t.Code {
		nslots += 2 + len(t.Code[i].Args)
	}
	d := &Decoded{Code: make([]DInstr, n+1), Slots: make([]int, 0, nslots)}
	for pc := range t.Code {
		in := &t.Code[pc]
		target := in.Target
		if target < 0 || target > n {
			target = n
		}
		start := len(d.Slots)
		d.Slots = in.Inputs(d.Slots)
		d.Code[pc] = DInstr{
			Op:     in.Op,
			Class:  ClassOf(in.Op),
			NIn:    uint16(len(d.Slots) - start),
			Dst:    int32(in.Dst),
			A:      int32(in.A),
			B:      int32(in.B),
			In:     int32(start),
			Target: int32(target),
			Imm:    in.Imm,
		}
		if pc > 0 && d.Code[pc-1].Class == ClassScalar {
			d.Code[pc-1].Class = pairClass(in, d.Code[pc-1].Dst)
		}
	}
	d.Code[n] = DInstr{Dst: None, A: None, B: None, In: int32(len(d.Slots)), Target: int32(n)}
	return d
}

// pairClass is the class of a scalar instruction writing dst whose
// successor is next: a pair class when next only reads dst or reads
// nothing, ClassScalar otherwise.
func pairClass(next *Instr, dst int32) Class {
	switch {
	case (next.Op == BRTRUE || next.Op == BRFALSE) && int32(next.A) == dst:
		return ClassPairBranch
	case next.Op == MOVE && int32(next.A) == dst:
		return ClassPairMove
	case next.Op == JUMP:
		return ClassPairJump
	}
	return ClassScalar
}
