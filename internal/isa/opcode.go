package isa

// Opcode identifies an SP instruction. The set mirrors the operator
// repertoire of the paper's dataflow graphs after translation: arithmetic
// with the granularity of the iPSC/2 timing table (§5.1), control transfer
// (the translated "switch" operator), I-structure access, SP spawning
// (L and LD operators), token sends, and the Range-Filter support
// instructions inserted by the partitioner (OWNLO/OWNHI/MAX/MIN).
type Opcode uint8

// Instruction opcodes.
const (
	NOP Opcode = iota + 1

	// Data movement.
	CONST // Dst = Imm
	MOVE  // Dst = slot A
	CLEAR // mark Dst absent (used before spawning a child that SENDs into Dst)

	// Integer arithmetic (paper: integer add/sub 0.300 µs).
	IADD // Dst = A + B
	ISUB // Dst = A - B
	IMUL // Dst = A * B
	IDIV // Dst = A / B (trap on zero divisor)
	IMOD // Dst = A % B
	INEG // Dst = -A

	// Floating-point arithmetic (per-op costs from the paper's table).
	FADD  // Dst = A + B
	FSUB  // Dst = A - B
	FMUL  // Dst = A * B
	FDIV  // Dst = A / B
	FNEG  // Dst = -A
	FABS  // Dst = |A|
	FSQRT // Dst = sqrt(A)
	FPOW  // Dst = A ** B

	// Comparisons; result is a bool token. CMPxx dispatches on operand kind
	// (float compare cost if either side is a float, integer otherwise).
	CMPLT // Dst = A < B
	CMPLE // Dst = A <= B
	CMPGT // Dst = A > B
	CMPGE // Dst = A >= B
	CMPEQ // Dst = A == B
	CMPNE // Dst = A != B

	// Logical (paper: bitwise logical 0.558 µs). Operands are read for
	// their truthiness (nonzero is true, ints and floats alike) and the
	// result is a bool: on ints these are not bitwise.
	AND // Dst = A && B
	OR  // Dst = A || B
	NOT // Dst = !A

	// Min/max — used by Range Filters and as frontend intrinsics.
	MAX // Dst = max(A, B)
	MIN // Dst = min(A, B)

	// Conversions.
	ITOF // Dst = float(A)
	FTOI // Dst = int(A), truncating

	// Control transfer inside an SP (the translated switch operator:
	// "the program counter is either incremented ... or set to a new value").
	JUMP    // PC = Target
	BRFALSE // if !A { PC = Target }
	BRTRUE  // if A { PC = Target }

	// I-structure access. Reads are split-phase: the read clears Dst,
	// issues the request, and execution continues until Dst is consumed.
	ALLOC  // Dst = new local array; extents in Args (one slot per dimension)
	ALLOCD // Dst = new distributed array; extents in Args
	AREAD  // request element (A=array, Args=indices) into Dst
	AWRITE // write element (A=array, Args=indices, B=value)

	// Range-Filter ownership queries, resolved against the local array
	// header at run time (§4.2.2). For ROWLO/ROWHI, the PE's responsibility
	// along dimension 0 under the first-element rule. For COLLO/COLHI, the
	// in-row subrange owned by this PE for outer index B (both are clamped
	// to an empty range when the PE owns nothing).
	ROWLO // Dst = first dim-0 index this PE is responsible for (A=array)
	ROWHI // Dst = last dim-0 index this PE is responsible for (A=array)
	COLLO // Dst = first dim-1 index owned in row B (A=array)
	COLHI // Dst = last dim-1 index owned in row B (A=array)

	// Uniform Range Filter: when loop distribution cannot follow array
	// ownership (e.g. the written dimension is swept inside, §4.2.3's
	// conflicting-responsibility discussion), the index range [A,B] is
	// block-split evenly over the PEs.
	UNIFLO // Dst = this PE's block start within [A, B]
	UNIFHI // Dst = this PE's block end within [A, B]

	// SP management. SPAWN is the translated L operator (child SP on the
	// local PE); SPAWND is the distributing L (one copy per PE). Args are
	// slots whose values become the child's parameters. Imm.I holds the
	// child template ID.
	SPAWN
	SPAWND

	// SEND routes one token to slot Imm.I of SP instance A (a KindSP
	// value), carrying the value in B. Used for loop results and function
	// returns. SELF materializes this instance's own reference into Dst so
	// it can be passed to children as a continuation.
	SEND
	SELF

	// HALT ends the SP ("reaches the end of the SP, at which time it is
	// destroyed").
	HALT

	numOpcodes // sentinel; keep last
)

// NumOpcodes is the number of defined opcodes plus one; valid opcodes are
// in [1, NumOpcodes).
const NumOpcodes = int(numOpcodes)

var opcodeNames = [...]string{
	NOP: "NOP", CONST: "CONST", MOVE: "MOVE", CLEAR: "CLEAR",
	IADD: "IADD", ISUB: "ISUB", IMUL: "IMUL", IDIV: "IDIV", IMOD: "IMOD", INEG: "INEG",
	FADD: "FADD", FSUB: "FSUB", FMUL: "FMUL", FDIV: "FDIV", FNEG: "FNEG",
	FABS: "FABS", FSQRT: "FSQRT", FPOW: "FPOW",
	CMPLT: "CMPLT", CMPLE: "CMPLE", CMPGT: "CMPGT", CMPGE: "CMPGE",
	CMPEQ: "CMPEQ", CMPNE: "CMPNE",
	AND: "AND", OR: "OR", NOT: "NOT", MAX: "MAX", MIN: "MIN",
	ITOF: "ITOF", FTOI: "FTOI",
	JUMP: "JUMP", BRFALSE: "BRFALSE", BRTRUE: "BRTRUE",
	ALLOC: "ALLOC", ALLOCD: "ALLOCD", AREAD: "AREAD", AWRITE: "AWRITE",
	ROWLO: "ROWLO", ROWHI: "ROWHI", COLLO: "COLLO", COLHI: "COLHI",
	UNIFLO: "UNIFLO", UNIFHI: "UNIFHI",
	SPAWN: "SPAWN", SPAWND: "SPAWND", SEND: "SEND", SELF: "SELF", HALT: "HALT",
}

func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return "OP(" + itoa(int(op)) + ")"
}

func itoa(i int) string {
	// strconv-free tiny helper to keep the String path allocation-light.
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 && n > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

// IsPure reports whether the instruction only reads and writes the local
// frame (no interaction with other functional units, SPs, or PEs). The
// simulator executes runs of pure instructions inside a single event.
func (op Opcode) IsPure() bool {
	switch op {
	case ALLOC, ALLOCD, AREAD, AWRITE, SPAWN, SPAWND, SEND, HALT:
		return false
	}
	return true
}

// IsBranch reports whether the instruction may transfer control.
func (op Opcode) IsBranch() bool {
	return op == JUMP || op == BRFALSE || op == BRTRUE
}
