// Package isa defines the instruction set executed by Subcompact Processes
// (SPs): typed token values, frame slots with presence bits, instructions,
// SP templates, and whole programs.
//
// The PODS translator (internal/translate) lowers dataflow graphs into this
// ISA; the partitioner (internal/partition) rewrites it for distribution; and
// Run, the one executor, runs it for both backends — the discrete-event
// simulator (internal/sim) and the cluster runtime (internal/cluster) — each
// supplying only the effects.
package isa

import (
	"fmt"
	"math"
	"strconv"
)

// Kind discriminates the dynamic type of a Value.
type Kind uint8

// Value kinds. They start at 1 so the zero Value is recognizably invalid.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindBool
	KindArray // I-structure handle; ID stored in the I field
	KindSP    // SP instance reference (continuation target); ID in the I field
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindArray:
		return "array"
	case KindSP:
		return "sp"
	default:
		return "invalid"
	}
}

// Value is a dataflow token payload: a kind and one 8-byte payload, the
// same 9 bytes the cluster codec writes. KindFloat keeps the IEEE-754 bits
// of the float in I (read them with F); KindBool stores 0/1 in I.
//
// Because I holds a float's bits, == on two Values compares floats bitwise:
// a NaN equals itself and -0.0 differs from +0.0. Runtime code must not
// compare Values with ==; Equal is the semantic equality.
type Value struct {
	Kind Kind
	I    int64
}

// Int returns an integer Value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float returns a floating-point Value.
func Float(v float64) Value { return Value{Kind: KindFloat, I: int64(math.Float64bits(v))} }

// F returns the float a KindFloat value holds; for other kinds the result
// is meaningless.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// Bool returns a boolean Value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// Array returns an I-structure handle Value.
func Array(id int64) Value { return Value{Kind: KindArray, I: id} }

// SPRef returns an SP instance reference Value (used as a continuation).
func SPRef(id int64) Value { return Value{Kind: KindSP, I: id} }

// AsInt converts the value to int64. Floats truncate toward zero,
// matching the frontend's explicit int() conversion semantics.
func (v Value) AsInt() int64 {
	if v.Kind == KindFloat {
		return int64(v.F())
	}
	return v.I
}

// AsFloat converts the value to float64.
func (v Value) AsFloat() float64 {
	if v.Kind == KindFloat {
		return v.F()
	}
	return float64(v.I)
}

// AsBool reports the truthiness of the value.
func (v Value) AsBool() bool {
	if v.Kind == KindFloat {
		return v.F() != 0
	}
	return v.I != 0
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// Equal reports semantic equality: numeric values compare by value across
// int/float kinds; other kinds require matching kind and payload.
func (v Value) Equal(o Value) bool {
	if v.IsNumeric() && o.IsNumeric() {
		if v.Kind == KindInt && o.Kind == KindInt {
			return v.I == o.I
		}
		return v.AsFloat() == o.AsFloat()
	}
	return v.Kind == o.Kind && v.I == o.I
}

func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		f := v.F()
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return strconv.FormatFloat(f, 'f', 1, 64)
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindArray:
		return fmt.Sprintf("array#%d", v.I)
	case KindSP:
		return fmt.Sprintf("sp#%d", v.I)
	default:
		return "<invalid>"
	}
}
