package isa

import "testing"

func TestEvalScalar(t *testing.T) {
	cases := []struct {
		op   Opcode
		a, b Value
		want Value
	}{
		{IADD, Int(3), Int(4), Int(7)},
		{ISUB, Int(3), Int(4), Int(-1)},
		{IMUL, Int(3), Int(4), Int(12)},
		{IDIV, Int(9), Int(2), Int(4)},
		{IMOD, Int(9), Int(2), Int(1)},
		{INEG, Int(5), Value{}, Int(-5)},
		{FADD, Float(1.5), Float(2.25), Float(3.75)},
		{FDIV, Float(1), Float(4), Float(0.25)},
		{FABS, Float(-2), Value{}, Float(2)},
		{FSQRT, Float(9), Value{}, Float(3)},
		{FPOW, Float(2), Float(10), Float(1024)},
		{CMPLT, Int(1), Int(2), Bool(true)},
		// Mixed operands compare as floats.
		{CMPEQ, Int(2), Float(2), Bool(true)},
		{CMPGE, Float(1.5), Int(2), Bool(false)},
		{AND, Bool(true), Bool(false), Bool(false)},
		{OR, Bool(true), Bool(false), Bool(true)},
		{NOT, Bool(false), Value{}, Bool(true)},
		// On ints the logical ops read truthiness and yield a bool, not
		// bits: 6 AND 3 is true (not 2), 4 OR 0 is true (not 4), NOT 5 is
		// false (not -6).
		{AND, Int(6), Int(3), Bool(true)},
		{AND, Int(6), Int(0), Bool(false)},
		{OR, Int(4), Int(0), Bool(true)},
		{OR, Int(0), Int(0), Bool(false)},
		{NOT, Int(5), Value{}, Bool(false)},
		{NOT, Int(0), Value{}, Bool(true)},
		// Integer MAX/MIN preserve the integer kind.
		{MAX, Int(3), Int(7), Int(7)},
		{MIN, Int(3), Int(7), Int(3)},
		{MAX, Float(3), Int(7), Float(7)},
		{ITOF, Int(3), Value{}, Float(3)},
		{FTOI, Float(3.9), Value{}, Int(3)},
	}
	for _, c := range cases {
		got, err := EvalScalar(c.op, c.a, c.b)
		if err != nil {
			t.Errorf("EvalScalar(%s, %s, %s): %v", c.op, c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("EvalScalar(%s, %s, %s) = %s, want %s", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalScalarErrors(t *testing.T) {
	if _, err := EvalScalar(IDIV, Int(1), Int(0)); err == nil {
		t.Error("IDIV by zero: want error")
	}
	if _, err := EvalScalar(IMOD, Int(1), Int(0)); err == nil {
		t.Error("IMOD by zero: want error")
	}
	if _, err := EvalScalar(SPAWN, Int(1), Int(0)); err == nil {
		t.Error("EvalScalar(SPAWN): want non-scalar error")
	}
	if IsScalar(SPAWN) || IsScalar(AREAD) || IsScalar(JUMP) {
		t.Error("IsScalar: control/memory/process ops must not be scalar")
	}
	if !IsScalar(IADD) || !IsScalar(FSQRT) || !IsScalar(CMPNE) {
		t.Error("IsScalar: ALU ops must be scalar")
	}
}
