package isa

import (
	"fmt"
	"math"
)

// IsScalar reports whether op is a pure scalar ALU operation that
// EvalScalar can compute: no control flow, memory, or process effects.
func IsScalar(op Opcode) bool {
	switch op {
	case IADD, ISUB, IMUL, IDIV, IMOD, INEG,
		FADD, FSUB, FMUL, FDIV, FNEG, FABS, FSQRT, FPOW,
		CMPLT, CMPLE, CMPGT, CMPGE, CMPEQ, CMPNE,
		AND, OR, NOT, MAX, MIN, ITOF, FTOI:
		return true
	}
	return false
}

// EvalScalar computes a pure scalar operation; unary ops ignore b. It is
// the one definition of scalar semantics: every backend runs scalar opcodes
// on Run, whose inline cases compute exactly what this does (a test holds
// them to it) and which calls this for everything else, so backends'
// arithmetic cannot diverge — a precondition for the Church-Rosser
// backend-agreement tests. Integer division or modulo by zero is an error.
func EvalScalar(op Opcode, a, b Value) (Value, error) {
	switch op {
	case IADD:
		return Int(a.AsInt() + b.AsInt()), nil
	case ISUB:
		return Int(a.AsInt() - b.AsInt()), nil
	case IMUL:
		return Int(a.AsInt() * b.AsInt()), nil
	case IDIV:
		d := b.AsInt()
		if d == 0 {
			return Value{}, fmt.Errorf("integer division by zero")
		}
		return Int(a.AsInt() / d), nil
	case IMOD:
		d := b.AsInt()
		if d == 0 {
			return Value{}, fmt.Errorf("integer modulo by zero")
		}
		return Int(a.AsInt() % d), nil
	case INEG:
		return Int(-a.AsInt()), nil

	case FADD:
		return Float(a.AsFloat() + b.AsFloat()), nil
	case FSUB:
		return Float(a.AsFloat() - b.AsFloat()), nil
	case FMUL:
		return Float(a.AsFloat() * b.AsFloat()), nil
	case FDIV:
		return Float(a.AsFloat() / b.AsFloat()), nil
	case FNEG:
		return Float(-a.AsFloat()), nil
	case FABS:
		return Float(math.Abs(a.AsFloat())), nil
	case FSQRT:
		return Float(math.Sqrt(a.AsFloat())), nil
	case FPOW:
		return Float(math.Pow(a.AsFloat(), b.AsFloat())), nil

	case CMPLT, CMPLE, CMPGT, CMPGE, CMPEQ, CMPNE:
		return compareValues(op, a, b), nil
	case AND:
		return Bool(a.AsBool() && b.AsBool()), nil
	case OR:
		return Bool(a.AsBool() || b.AsBool()), nil
	case NOT:
		return Bool(!a.AsBool()), nil
	case MAX, MIN:
		return minmaxValues(op, a, b), nil
	case ITOF:
		return Float(a.AsFloat()), nil
	case FTOI:
		return Int(a.AsInt()), nil
	}
	return Value{}, fmt.Errorf("EvalScalar: %s is not a scalar opcode", op)
}

// compareValues orders two values — as floats when either side is a float,
// as integers otherwise — and applies the comparison op.
func compareValues(op Opcode, a, b Value) Value {
	if a.Kind == KindFloat || b.Kind == KindFloat {
		x, y := a.AsFloat(), b.AsFloat()
		return Bool(holds(op, x < y, x > y))
	}
	x, y := a.AsInt(), b.AsInt()
	return Bool(holds(op, x < y, x > y))
}

// holds applies the comparison op to an ordering of its operands: lt when
// a < b, gt when a > b, neither when they are equal or unordered (a NaN
// orders equal to everything).
func holds(op Opcode, lt, gt bool) bool {
	switch op {
	case CMPLT:
		return lt
	case CMPLE:
		return !gt
	case CMPGT:
		return gt
	case CMPGE:
		return !lt
	case CMPEQ:
		return !lt && !gt
	}
	return lt || gt
}

// minmaxValues picks the extremum, preserving integer identity for
// all-integer operands and following IEEE math.Max/Min when floats mix in.
func minmaxValues(op Opcode, a, b Value) Value {
	if a.Kind == KindFloat || b.Kind == KindFloat {
		if op == MAX {
			return Float(math.Max(a.AsFloat(), b.AsFloat()))
		}
		return Float(math.Min(a.AsFloat(), b.AsFloat()))
	}
	if op == MAX {
		if a.AsInt() >= b.AsInt() {
			return a
		}
		return b
	}
	if a.AsInt() <= b.AsInt() {
		return a
	}
	return b
}
