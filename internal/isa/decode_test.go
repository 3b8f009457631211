package isa

import (
	"reflect"
	"testing"
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

// TestDecodedMirrorsCode: the decoded form carries every operand of every
// instruction, lists the inputs in Instr.Inputs order, ends in the trap,
// and is built once per template.
func TestDecodedMirrorsCode(t *testing.T) {
	rd := NewInstr(AREAD)
	rd.Dst, rd.A, rd.Args = 4, 0, []int{1, 2}
	wr := NewInstr(AWRITE)
	wr.A, wr.B, wr.Args = 0, 4, []int{2, 1}
	br := NewInstr(BRTRUE)
	br.A, br.Target = 3, 0
	k := NewInstr(CONST)
	k.Dst, k.Imm = 3, Bool(false)
	tm := &Template{Name: "t", NParams: 3, NSlots: 5,
		Code: []Instr{rd, wr, k, br, NewInstr(HALT)}}
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
		if di.Op != in.Op || di.Class != ClassOf(in.Op) || int(di.Dst) != in.Dst ||
			int(di.A) != in.A || int(di.B) != in.B || di.Imm != in.Imm {
			t.Errorf("pc %d: decoded %+v from %s", pc, *di, in.String())
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
