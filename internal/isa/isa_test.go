package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndConversions(t *testing.T) {
	cases := []struct {
		v        Value
		asInt    int64
		asFloat  float64
		asBool   bool
		rendered string
	}{
		{Int(42), 42, 42, true, "42"},
		{Int(0), 0, 0, false, "0"},
		{Int(-7), -7, -7, true, "-7"},
		{Float(2.5), 2, 2.5, true, "2.5"},
		{Float(3.0), 3, 3.0, true, "3.0"},
		{Float(0), 0, 0, false, "0.0"},
		{Bool(true), 1, 1, true, "true"},
		{Bool(false), 0, 0, false, "false"},
		{Array(9), 9, 9, true, "array#9"},
		{SPRef(3), 3, 3, true, "sp#3"},
	}
	for _, c := range cases {
		if got := c.v.AsInt(); got != c.asInt {
			t.Errorf("%v.AsInt() = %d, want %d", c.v, got, c.asInt)
		}
		if got := c.v.AsFloat(); got != c.asFloat {
			t.Errorf("%v.AsFloat() = %v, want %v", c.v, got, c.asFloat)
		}
		if got := c.v.AsBool(); got != c.asBool {
			t.Errorf("%v.AsBool() = %v, want %v", c.v, got, c.asBool)
		}
		if got := c.v.String(); got != c.rendered {
			t.Errorf("String() = %q, want %q", got, c.rendered)
		}
	}
	var zero Value
	if zero.Kind != KindInvalid || zero.String() != "<invalid>" {
		t.Errorf("zero value should be invalid, got %q", zero.String())
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("numeric cross-kind equality should hold")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("3 != 3.5")
	}
	if Int(1).Equal(Bool(true)) {
		t.Error("int and bool are not comparable kinds")
	}
	if !Array(4).Equal(Array(4)) || Array(4).Equal(Array(5)) {
		t.Error("array handle equality by id")
	}
}

func TestFloatTruncationTowardZero(t *testing.T) {
	if Float(-2.9).AsInt() != -2 {
		t.Errorf("AsInt(-2.9) = %d, want -2 (truncate toward zero)", Float(-2.9).AsInt())
	}
	if Float(2.9).AsInt() != 2 {
		t.Errorf("AsInt(2.9) = %d, want 2", Float(2.9).AsInt())
	}
}

func TestOpcodeStrings(t *testing.T) {
	for op := Opcode(1); int(op) < NumOpcodes; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "OP(") {
			t.Errorf("opcode %d has no name", op)
		}
	}
	if Opcode(200).String() != "OP(200)" {
		t.Errorf("unknown opcode rendering: %q", Opcode(200).String())
	}
}

func TestOpcodePurity(t *testing.T) {
	impure := []Opcode{ALLOC, ALLOCD, AREAD, AWRITE, SPAWN, SPAWND, SEND, HALT}
	for _, op := range impure {
		if op.IsPure() {
			t.Errorf("%s should be impure", op)
		}
	}
	pure := []Opcode{CONST, MOVE, CLEAR, IADD, FMUL, CMPLT, JUMP, BRFALSE, MAX, ROWLO, UNIFHI, SELF}
	for _, op := range pure {
		if !op.IsPure() {
			t.Errorf("%s should be pure", op)
		}
	}
}

func TestInstrInputsAndString(t *testing.T) {
	in := NewInstr(AWRITE)
	in.A, in.B = 1, 5
	in.Args = []int{2, 3}
	got := in.Inputs(nil)
	want := []int{1, 5, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Inputs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Inputs = %v, want %v", got, want)
		}
	}
	s := in.String()
	if !strings.Contains(s, "AWRITE") || !strings.Contains(s, "s5") {
		t.Errorf("String() = %q", s)
	}
	br := NewInstr(BRFALSE)
	br.A, br.Target, br.Comment = 0, 7, "loop exit"
	s = br.String()
	if !strings.Contains(s, "->7") || !strings.Contains(s, "loop exit") {
		t.Errorf("branch rendering: %q", s)
	}
}

func mkTemplate(code []Instr, nslots, nparams int) *Template {
	return &Template{ID: 0, Name: "t", Kind: TmplMain, Code: code, NSlots: nslots, NParams: nparams}
}

func TestTemplateValidate(t *testing.T) {
	ok := NewInstr(MOVE)
	ok.Dst, ok.A = 1, 0
	prog := &Program{Templates: []*Template{mkTemplate([]Instr{ok, NewInstr(HALT)}, 2, 1)}, EntryID: 0}
	if err := prog.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	bad := NewInstr(MOVE)
	bad.Dst, bad.A = 5, 0 // slot out of range
	prog = &Program{Templates: []*Template{mkTemplate([]Instr{bad}, 2, 1)}, EntryID: 0}
	if err := prog.Validate(); err == nil {
		t.Fatal("out-of-range slot accepted")
	}

	badBr := NewInstr(JUMP)
	badBr.Target = 99
	prog = &Program{Templates: []*Template{mkTemplate([]Instr{badBr}, 1, 0)}, EntryID: 0}
	if err := prog.Validate(); err == nil {
		t.Fatal("out-of-range jump target accepted")
	}

	badSpawn := NewInstr(SPAWN)
	badSpawn.Imm = Int(42)
	prog = &Program{Templates: []*Template{mkTemplate([]Instr{badSpawn}, 1, 0)}, EntryID: 0}
	if err := prog.Validate(); err == nil {
		t.Fatal("spawn of unknown template accepted")
	}

	prog = &Program{Templates: nil, EntryID: 0}
	if err := prog.Validate(); err == nil {
		t.Fatal("missing entry accepted")
	}

	badOp := Instr{Op: Opcode(250), Dst: None, A: None, B: None, Target: None}
	prog = &Program{Templates: []*Template{mkTemplate([]Instr{badOp}, 1, 0)}, EntryID: 0}
	if err := prog.Validate(); err == nil {
		t.Fatal("invalid opcode accepted")
	}

	halt := []Instr{NewInstr(HALT)}
	prog = &Program{Templates: []*Template{mkTemplate(halt, 1, 0), nil}, EntryID: 0}
	if err := prog.Validate(); err == nil || !strings.Contains(err.Error(), "template 1 is nil") {
		t.Fatalf("nil template entry: err = %v", err)
	}

	second := mkTemplate(halt, 1, 0) // ID 0 at index 1: a spawn message naming it runs template 0
	prog = &Program{Templates: []*Template{mkTemplate(halt, 1, 0), second}, EntryID: 0}
	if err := prog.Validate(); err == nil || !strings.Contains(err.Error(), "ID 0 at index 1") {
		t.Fatalf("template ID that is not its index: err = %v", err)
	}
}

func TestTemplateListing(t *testing.T) {
	in := NewInstr(CONST)
	in.Dst, in.Imm = 0, Float(1.5)
	tm := mkTemplate([]Instr{in, NewInstr(HALT)}, 1, 0)
	tm.Distributed = true
	s := tm.Listing()
	if !strings.Contains(s, "[distributed]") || !strings.Contains(s, "CONST") {
		t.Errorf("listing: %s", s)
	}
}

func TestRFKindStrings(t *testing.T) {
	if RFRow.String() != "row" || RFCol.String() != "col" || RFUniform.String() != "uniform" || RFNone.String() != "none" {
		t.Error("RFKind strings wrong")
	}
}

// Property: Equal is reflexive and symmetric for numeric values.
func TestValueEqualProperties(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := Int(int64(a)), Float(float64(b))
		if !va.Equal(va) || !vb.Equal(vb) {
			return false
		}
		return va.Equal(vb) == vb.Equal(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
