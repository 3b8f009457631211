package isa

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestClassOfCoversEveryOpcode: every defined opcode has a class, the
// scalar class is exactly EvalScalar's domain, and nothing undefined has one.
func TestClassOfCoversEveryOpcode(t *testing.T) {
	for op := Opcode(1); int(op) < NumOpcodes; op++ {
		c := ClassOf(op)
		if c == ClassTrap {
			t.Errorf("%s has no class", op)
		}
		if (c == ClassScalar) != IsScalar(op) {
			t.Errorf("%s: class %d disagrees with IsScalar = %v", op, c, IsScalar(op))
		}
	}
	if ClassOf(0) != ClassTrap || ClassOf(Opcode(NumOpcodes)) != ClassTrap {
		t.Error("an undefined opcode has a class")
	}
}

// TestDInstrSize pins the decoded instruction at 40 bytes: the pair marks
// live in Class, not in a field of their own, and Imm is a 16-byte Value.
func TestDInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(DInstr{}); n != 40 {
		t.Fatalf("DInstr is %d bytes, want 40", n)
	}
}

// TestValueSize pins Value at 16 bytes: a kind and one 8-byte payload, a
// float's bits included, so no frame slot or I-structure element carries
// a second payload word.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Fatalf("Value is %d bytes, want 16", n)
	}
}

// TestDecodedMirrorsCode: the decoded form carries every operand of every
// instruction, lists the inputs in Instr.Inputs order, ends in the trap,
// and is built once per template. Its class is the opcode's, except that a
// scalar instruction is marked as the head of a pair exactly when its
// successor is a branch on its Dst, a MOVE from its Dst or a JUMP.
func TestDecodedMirrorsCode(t *testing.T) {
	ins := func(op Opcode, dst, a, b int) Instr {
		in := NewInstr(op)
		in.Dst, in.A, in.B = dst, a, b
		return in
	}
	jump := func(op Opcode, a, target int) Instr {
		in := NewInstr(op)
		in.A, in.Target = a, target
		return in
	}
	rd := ins(AREAD, 4, 0, None)
	rd.Args = []int{1, 2}
	wr := ins(AWRITE, None, 0, 4)
	wr.Args = []int{2, 1}
	k := ins(CONST, 3, None, None)
	k.Imm = Bool(false)
	tm := &Template{Name: "t", NParams: 3, NSlots: 8, Code: []Instr{
		rd, wr, k,
		jump(BRTRUE, 3, 0),    // 3: after a CONST: no pair
		ins(CMPLT, 5, 1, 2),   // 4: pair with the branch on s5
		jump(BRFALSE, 5, 12),  // 5
		ins(CMPGT, 6, 1, 2),   // 6: the branch tests s5, not s6
		jump(BRTRUE, 5, 12),   // 7
		ins(FADD, 6, 4, 4),    // 8: pair with the MOVE from s6
		ins(MOVE, 7, 6, None), // 9
		ins(FSUB, 6, 4, 4),    // 10: the MOVE reads s4, not s6
		ins(MOVE, 7, 4, None), // 11
		ins(IADD, 1, 1, 2),    // 12: followed by a scalar
		ins(IADD, 1, 1, 2),    // 13: pair with the JUMP
		jump(JUMP, None, 4),   // 14
		NewInstr(HALT),        // 15
	}}
	marks := map[int]Class{4: ClassPairBranch, 8: ClassPairMove, 13: ClassPairJump}
	if err := tm.Validate(nil); err != nil {
		t.Fatal(err)
	}
	d := tm.Decoded()
	if d != tm.Decoded() {
		t.Fatal("Decoded rebuilt the decoded form on its second call")
	}
	if len(d.Code) != len(tm.Code)+1 {
		t.Fatalf("%d decoded instructions for %d, want one trailing trap", len(d.Code), len(tm.Code))
	}
	for pc := range tm.Code {
		in, di := &tm.Code[pc], &d.Code[pc]
		class, ok := marks[pc]
		if !ok {
			class = ClassOf(in.Op)
		}
		if di.Op != in.Op || di.Class != class || int(di.Dst) != in.Dst ||
			int(di.A) != in.A || int(di.B) != in.B || di.Imm != in.Imm {
			t.Errorf("pc %d: decoded %+v from %s, want class %d", pc, *di, in.String(), class)
		}
		if in.Op.IsBranch() && int(di.Target) != in.Target {
			t.Errorf("pc %d: decoded target %d, want %d", pc, di.Target, in.Target)
		}
		if got, want := d.Inputs(di), in.Inputs(nil); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Errorf("pc %d: inputs %v, want %v", pc, got, want)
		}
		if got := d.Args(di); !reflect.DeepEqual(got, in.Args) && len(got)+len(in.Args) > 0 {
			t.Errorf("pc %d: args %v, want %v", pc, got, in.Args)
		}
	}
	if trap := &d.Code[len(tm.Code)]; trap.Class != ClassTrap || len(d.Inputs(trap)) != 0 {
		t.Errorf("trailing instruction %+v is not an input-free trap", *trap)
	}
}
