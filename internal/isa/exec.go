package isa

import (
	"fmt"
	"math"
)

// Step is how executing an instruction ends. A Backend answers Next, End or
// Suspend for each effect it performs; Run returns any Step but Next.
type Step uint8

// Steps.
const (
	Next    Step = iota // completed: go on at pc+1
	End                 // completed: stop at pc+1
	Suspend             // not completed: stop at pc, where it re-executes
	Halt                // HALT: stop at pc; the SP is done
	Block               // an input slot is absent: stop at pc; Exec.Blocked names it
	Watched             // completed and wrote slot Exec.Watch: stop at pc+1
	Fault               // a scalar fault, an ill-typed operand or the trap: stop at pc; Exec.Err says which
)

// Backend performs the effect-class instructions other than HALT:
// I-structure access, allocation, Range Filters, spawns and sends.
type Backend interface {
	// Effect performs in, the instruction at x.PC. Its inputs are present,
	// an array-handle or SP-reference operand has that kind, and its cost
	// is already in x.Now. It must not change x.PC, x.Now or x.N.
	Effect(x *Exec, in *DInstr) Step
}

// Exec is one SP as Run sees it — its decoded code, frame and pc — plus the
// per-instruction accounting every backend needs: a clock and a count. A
// backend keeps one, with itself as Backend, and points it at each SP it
// runs.
type Exec struct {
	Backend Backend
	*Decoded
	F    []Value // the frame: an absent slot is the zero Value (KindInvalid)
	PC   int
	Self int64 // what SELF yields: the SP's own reference

	// Cost, when non-nil, is the time of each instruction by pc, added to
	// Now once the instruction's inputs are present and before it executes;
	// a comparison with a float operand adds CmpExtra on top.
	Cost     []int64
	CmpExtra int64
	Now      int64

	// N counts completed instructions: not one that blocks, suspends,
	// faults or halts.
	N int64

	// Watch is a slot whose writes end the run with Watched, or None.
	Watch int32

	Blocked int   // the absent slot, after Block
	Err     error // what went wrong, after Fault
}

// operandKind is the kind an effect's A operand must have, by opcode: array
// accesses and ownership queries take an array handle, SEND an SP reference.
// Checked before the backend sees the instruction, so no backend can read
// an integer as an array ID or a token target.
var operandKind = [NumOpcodes]Kind{
	AREAD: KindArray, AWRITE: KindArray,
	ROWLO: KindArray, ROWHI: KindArray, COLLO: KindArray, COLHI: KindArray,
	SEND: KindSP,
}

// Run executes x from x.PC until an instruction blocks on an absent slot,
// faults or halts, or the backend ends the run, and returns why. Operand
// presence, the scalar and control instructions and the per-instruction
// accounting happen here without calling the backend; every other effect
// is one call to x.Backend.Effect.
func Run(x *Exec) Step {
	code, f, pc, n, watch := x.Code, x.F, x.PC, x.N, x.Watch
	if watch == None {
		watch = math.MinInt32 // a slot no instruction writes
	}
	for {
		in := &code[pc]
		if in.Class >= ClassScalar {
			a := f[in.A]
			if a.Kind == KindInvalid {
				return x.block(pc, n, int(in.A))
			}
			var c Value
			if in.B != None {
				if c = f[in.B]; c.Kind == KindInvalid {
					return x.block(pc, n, int(in.B))
				}
			}
			if x.Cost != nil {
				x.Now += x.Cost[pc]
				if in.Op >= CMPLT && in.Op <= CMPNE && (a.Kind == KindFloat || c.Kind == KindFloat) {
					x.Now += x.CmpExtra
				}
			}
			// The int-int and float-float cases of the hot opcodes, exactly
			// as EvalScalar computes them; every other opcode, operand mix
			// and fault is EvalScalar's (v stays invalid).
			var v Value
			switch in.Op {
			case IADD:
				if a.Kind == KindInt && c.Kind == KindInt {
					v = Int(a.I + c.I)
				}
			case ISUB:
				if a.Kind == KindInt && c.Kind == KindInt {
					v = Int(a.I - c.I)
				}
			case IMUL:
				if a.Kind == KindInt && c.Kind == KindInt {
					v = Int(a.I * c.I)
				}
			case FADD:
				if a.Kind == KindFloat && c.Kind == KindFloat {
					v = Float(a.F() + c.F())
				}
			case FSUB:
				if a.Kind == KindFloat && c.Kind == KindFloat {
					v = Float(a.F() - c.F())
				}
			case FMUL:
				if a.Kind == KindFloat && c.Kind == KindFloat {
					v = Float(a.F() * c.F())
				}
			case CMPLT, CMPLE, CMPGT, CMPGE, CMPEQ, CMPNE:
				if a.Kind == KindInt && c.Kind == KindInt {
					v = Bool(holds(in.Op, a.I < c.I, a.I > c.I))
				} else if a.Kind == KindFloat && c.Kind == KindFloat {
					v = Bool(holds(in.Op, a.F() < c.F(), a.F() > c.F()))
				}
			case ITOF:
				if a.Kind == KindInt {
					v = Float(float64(a.I))
				}
			case FSQRT:
				if a.Kind == KindFloat {
					v = Float(math.Sqrt(a.F()))
				}
			}
			if v.Kind == KindInvalid {
				var err error
				if v, err = EvalScalar(in.Op, a, c); err != nil {
					return x.fault(pc, n, fmt.Errorf("pc %d: %w", pc, err))
				}
			}
			f[in.Dst] = v
			// A pair: the successor reads only v or nothing, so it needs no
			// presence check and cannot fail. Unless the head wrote the
			// watched slot (it stops the run), the successor runs here,
			// paying its own cost and count.
			if in.Class != ClassScalar && in.Dst != watch {
				n++
				pc++
				if x.Cost != nil {
					x.Now += x.Cost[pc]
				}
				next := &code[pc]
				switch in.Class {
				case ClassPairBranch:
					if v.AsBool() == (next.Op == BRTRUE) {
						pc = int(next.Target) - 1
					}
				case ClassPairMove:
					f[next.Dst] = v
					in = next // the MOVE's Dst is the one the watch check reads
				default: // ClassPairJump
					pc = int(next.Target) - 1
				}
			}
		} else {
			for _, s := range x.Inputs(in) {
				if f[s].Kind == KindInvalid {
					return x.block(pc, n, s)
				}
			}
			if x.Cost != nil {
				x.Now += x.Cost[pc]
			}
			switch in.Op {
			case NOP:
			case CONST:
				f[in.Dst] = in.Imm
			case MOVE:
				f[in.Dst] = f[in.A]
			case CLEAR:
				f[in.Dst] = Value{}
			case SELF:
				f[in.Dst] = SPRef(x.Self)
			case JUMP:
				pc = int(in.Target) - 1
			case BRFALSE, BRTRUE:
				if f[in.A].AsBool() == (in.Op == BRTRUE) {
					pc = int(in.Target) - 1
				}
			case HALT:
				x.PC, x.N = pc, n
				return Halt
			default:
				if in.Class != ClassEffect { // the trap past the end of the code
					return x.fault(pc, n, fmt.Errorf("pc %d: cannot execute %s", pc, in.Op))
				}
				if k := operandKind[in.Op]; k != KindInvalid && f[in.A].Kind != k {
					return x.fault(pc, n, operandError(pc, in.Op, f[in.A]))
				}
				x.PC, x.N = pc, n
				switch st := x.Backend.Effect(x, in); st {
				case Next:
				case End:
					x.PC, x.N = pc+1, n+1
					return End
				default:
					return st
				}
			}
		}
		n++
		pc++
		if in.Dst == watch {
			x.PC, x.N = pc, n
			return Watched
		}
	}
}

// block records where Run stopped on an absent slot.
func (x *Exec) block(pc int, n int64, slot int) Step {
	x.PC, x.N, x.Blocked = pc, n, slot
	return Block
}

// fault records where Run stopped on an error.
func (x *Exec) fault(pc int, n int64, err error) Step {
	x.PC, x.N, x.Err = pc, n, err
	return Fault
}

func operandError(pc int, op Opcode, v Value) error {
	if op == SEND {
		return fmt.Errorf("pc %d: SEND target is %s, not an SP reference", pc, v)
	}
	return fmt.Errorf("pc %d: %s operand %s is not an array handle", pc, op, v)
}
