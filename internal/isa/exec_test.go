package isa_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/simple"
)

// step is the reference executor: it runs the one instruction at x.PC as
// the ISA defines it, by opcode alone, with every scalar opcode through
// EvalScalar and no fusion, and returns Next when the run may go on.
// Otherwise it returns the Step Run would return and leaves the Exec as Run
// would leave it.
func step(x *isa.Exec) isa.Step {
	pc, in, f := x.PC, &x.Code[x.PC], x.F
	for _, s := range x.Inputs(in) {
		if f[s].Kind == isa.KindInvalid {
			x.Blocked = s
			return isa.Block
		}
	}
	var a, b isa.Value
	if in.A != isa.None {
		a = f[in.A]
	}
	if in.B != isa.None {
		b = f[in.B]
	}
	if x.Cost != nil {
		x.Now += x.Cost[pc]
		if in.Op >= isa.CMPLT && in.Op <= isa.CMPNE && (a.Kind == isa.KindFloat || b.Kind == isa.KindFloat) {
			x.Now += x.CmpExtra
		}
	}
	next := pc + 1
	switch op := in.Op; {
	case isa.IsScalar(op):
		v, err := isa.EvalScalar(op, a, b)
		if err != nil {
			x.Err = err
			return isa.Fault
		}
		f[in.Dst] = v
	case op == isa.NOP:
	case op == isa.CONST:
		f[in.Dst] = in.Imm
	case op == isa.MOVE:
		f[in.Dst] = a
	case op == isa.CLEAR:
		f[in.Dst] = isa.Value{}
	case op == isa.SELF:
		f[in.Dst] = isa.SPRef(x.Self)
	case op == isa.JUMP:
		next = int(in.Target)
	case op == isa.BRTRUE, op == isa.BRFALSE:
		if a.AsBool() == (op == isa.BRTRUE) {
			next = int(in.Target)
		}
	case op == isa.HALT:
		return isa.Halt
	default:
		want := isa.KindInvalid
		switch op {
		case isa.AREAD, isa.AWRITE, isa.ROWLO, isa.ROWHI, isa.COLLO, isa.COLHI:
			want = isa.KindArray
		case isa.SEND:
			want = isa.KindSP
		case 0: // the trap
			x.Err = errFault
			return isa.Fault
		}
		if want != isa.KindInvalid && a.Kind != want {
			x.Err = errFault
			return isa.Fault
		}
		switch st := x.Backend.Effect(x, in); st {
		case isa.Next:
		case isa.End:
			x.PC, x.N = next, x.N+1
			return isa.End
		default:
			return st
		}
	}
	x.PC, x.N = next, x.N+1
	if x.Watch != isa.None && in.Dst == x.Watch {
		return isa.Watched
	}
	return isa.Next
}

var errFault = errors.New("ill-typed operand or trap")

// stub performs effects without a machine behind them: an allocation
// yields array 1, a read 1.5, an ownership query a small range, a SEND ends
// the run, and everything else completes doing nothing.
type stub struct{}

func (stub) Effect(x *isa.Exec, in *isa.DInstr) isa.Step {
	switch in.Op {
	case isa.ALLOC, isa.ALLOCD:
		x.F[in.Dst] = isa.Array(1)
	case isa.AREAD:
		x.F[in.Dst] = isa.Float(1.5)
	case isa.ROWLO, isa.COLLO, isa.UNIFLO:
		x.F[in.Dst] = isa.Int(1)
	case isa.ROWHI, isa.COLHI, isa.UNIFHI:
		x.F[in.Dst] = isa.Int(3)
	case isa.SEND:
		return isa.End
	}
	return isa.Next
}

// allTemplates compiles every kernel and SIMPLE, partitioned as every
// backend runs them, and returns their templates.
func allTemplates(tb testing.TB) []*isa.Template {
	tb.Helper()
	out := compile(tb, "simple.id", simple.Source).Templates
	for _, k := range kernels.All() {
		out = append(out, compile(tb, k.File(), k.Source).Templates...)
	}
	return out
}

func compile(tb testing.TB, file, src string) *isa.Program {
	tb.Helper()
	prog, _, err := core.Compile(file, src, partition.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// byteValues hands out frame values from a byte string, two bytes a value:
// the first picks the kind (absent included), the second the payload. Both
// stay small and finite, so every loop a template runs ends within a few
// dozen trips whatever its bounds read. Past the end every value is Int(1).
type byteValues []byte

func (s *byteValues) next() isa.Value {
	if len(*s) < 2 {
		return isa.Int(1)
	}
	k, p := (*s)[0], (*s)[1]
	*s = (*s)[2:]
	switch k % 8 {
	case 0:
		return isa.Value{}
	case 1, 2:
		return isa.Int(int64(p%16) - 4)
	case 3, 4:
		return isa.Float((float64(p%64) - 16) / 4)
	case 5:
		return isa.Bool(p&1 == 1)
	case 6:
		return isa.Array(int64(p % 4))
	}
	return isa.SPRef(int64(p % 4))
}

// checkRunMatchesStepper runs tm from pc 0 on Run and on the reference
// stepper, from one frame drawn from data, and compares the two after
// every stop: the Step, PC, N, Now, Blocked and every frame slot bit for
// bit. A Block is resumed with the missing slot filled (the same value on
// both sides), a Watched or End stop as it stands, until the SP halts,
// faults or suspends.
func checkRunMatchesStepper(t *testing.T, tm *isa.Template, watch int, costed bool, data []byte) {
	src := byteValues(data)
	frame := make([]isa.Value, tm.NSlots)
	for i := range frame {
		frame[i] = src.next()
	}
	d := tm.Decoded()
	run := &isa.Exec{Backend: stub{}, Decoded: d, F: frame, Self: 7, Watch: int32(watch)}
	ref := &isa.Exec{Backend: stub{}, Decoded: d, F: append([]isa.Value(nil), frame...), Self: 7, Watch: int32(watch)}
	if costed {
		cost := make([]int64, len(d.Code))
		for pc := range cost {
			cost[pc] = int64(pc*7%13 + 1)
		}
		run.Cost, run.CmpExtra = cost, 100
		ref.Cost, ref.CmpExtra = cost, 100
	}
	for stops := 0; stops < 1000; stops++ {
		got := isa.Run(run)
		want := step(ref)
		for want == isa.Next {
			want = step(ref)
		}
		if got != want || run.PC != ref.PC || run.N != ref.N || run.Now != ref.Now ||
			got == isa.Block && run.Blocked != ref.Blocked {
			t.Fatalf("%s watch %d cost %v, stop %d: Run %d at pc %d (n %d, now %d, blocked %d), stepper %d at pc %d (n %d, now %d, blocked %d)",
				tm.Name, watch, costed, stops, got, run.PC, run.N, run.Now, run.Blocked, want, ref.PC, ref.N, ref.Now, ref.Blocked)
		}
		for s := range run.F {
			if run.F[s] != ref.F[s] {
				t.Fatalf("%s watch %d cost %v, stop %d: slot %d is %v after Run, %v after the stepper",
					tm.Name, watch, costed, stops, s, run.F[s], ref.F[s])
			}
		}
		switch got {
		case isa.Block:
			v := src.next()
			if v.Kind == isa.KindInvalid {
				v = isa.Int(2)
			}
			run.F[run.Blocked], ref.F[ref.Blocked] = v, v
		case isa.Watched, isa.End:
		default:
			return
		}
	}
}

// written lists the slots tm's instructions write, each once.
func written(tm *isa.Template) []int {
	seen := map[int]bool{}
	var out []int
	for _, in := range tm.Code {
		if in.Dst != isa.None && !seen[in.Dst] {
			seen[in.Dst] = true
			out = append(out, in.Dst)
		}
	}
	return out
}

// TestRunMatchesStepper: Run, with its pairs and its inline fast path,
// stops where the one-instruction-at-a-time stepper stops and leaves the
// same state, on every template of every kernel and SIMPLE, from random
// frames with random absent slots, watching nothing or each written slot,
// with and without a cost table.
func TestRunMatchesStepper(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 256)
	for _, tm := range allTemplates(t) {
		for _, watch := range append([]int{isa.None}, written(tm)...) {
			for trial := 0; trial < 4; trial++ {
				rng.Read(data)
				checkRunMatchesStepper(t, tm, watch, trial%2 == 1, data)
			}
		}
	}
}

// FuzzRunMatchesStepper is TestRunMatchesStepper with the template, the
// watched slot, the cost table and the frame picked by the fuzzer.
func FuzzRunMatchesStepper(f *testing.F) {
	tms := allTemplates(f)
	f.Add(uint16(0), uint8(0), false, []byte{1, 5, 3, 9, 0, 0, 2, 2})
	f.Add(uint16(7), uint8(3), true, []byte{4, 40, 1, 12, 3, 0, 5, 1})
	f.Fuzz(func(t *testing.T, pick uint16, watch uint8, costed bool, data []byte) {
		tm := tms[int(pick)%len(tms)]
		slot := isa.None
		if ws := written(tm); watch > 0 && len(ws) > 0 {
			slot = ws[int(watch-1)%len(ws)]
		}
		checkRunMatchesStepper(t, tm, slot, costed, data)
	})
}

// TestRunMatchesEvalScalar: for every scalar opcode and every pair of
// int, float and bool edge values, Run's result — from its inline fast
// path or from EvalScalar — is EvalScalar's, kind, integer and float bits
// alike, and Run faults exactly where EvalScalar fails.
func TestRunMatchesEvalScalar(t *testing.T) {
	vals := []isa.Value{isa.Bool(false), isa.Bool(true)}
	for _, i := range []int64{0, -1, math.MinInt64, math.MaxInt64, 1<<53 + 1} {
		vals = append(vals, isa.Int(i), isa.Float(float64(i)))
	}
	for _, x := range []float64{math.Copysign(0, -1), 2.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		vals = append(vals, isa.Float(x))
	}
	unary := map[isa.Opcode]bool{isa.INEG: true, isa.FNEG: true, isa.FABS: true,
		isa.FSQRT: true, isa.NOT: true, isa.ITOF: true, isa.FTOI: true}
	for op := isa.Opcode(1); int(op) < isa.NumOpcodes; op++ {
		if !isa.IsScalar(op) {
			continue
		}
		in := isa.NewInstr(op)
		in.Dst, in.A = 2, 0
		bs := []isa.Value{{}}
		if !unary[op] {
			in.B, bs = 1, vals
		}
		tm := &isa.Template{Name: op.String(), NSlots: 3, Code: []isa.Instr{in, isa.NewInstr(isa.HALT)}}
		if err := tm.Validate(nil); err != nil {
			t.Fatal(err)
		}
		for _, a := range vals {
			for _, b := range bs {
				want, err := isa.EvalScalar(op, a, b)
				x := &isa.Exec{Decoded: tm.Decoded(), F: []isa.Value{a, b, {}}, Watch: isa.None}
				st := isa.Run(x)
				if (st == isa.Fault) != (err != nil) || x.F[2] != want {
					t.Errorf("%s %v %v: Run gives %v (step %d), EvalScalar %v (%v)", op, a, b, x.F[2], st, want, err)
				}
			}
		}
	}
}

// BenchmarkRunKernelLoop runs the innermost loop of triangular (pure ALU)
// and of relax (one AREAD, answered by the stub, per trip) on Run alone:
// no worker, no shard, no scheduler.
func BenchmarkRunKernelLoop(b *testing.B) {
	const trips = 4096
	loops := []struct {
		kernel, tmpl string // tmpl: the loop template's name up to its label
		params       []isa.Value
	}{
		// init, limit, i, j, s, the continuation, its slot
		{"triangular", "main.k.", []isa.Value{isa.Int(1), isa.Int(trips), isa.Int(9), isa.Int(5),
			isa.Float(0), isa.SPRef(1), isa.Int(10)}},
		// init, limit, W, i, s, n, j, acc, the continuation, its slot
		{"relax", "relax.k.", []isa.Value{isa.Int(1), isa.Int(trips), isa.Array(1), isa.Int(2), isa.Int(2),
			isa.Int(8), isa.Int(3), isa.Float(0), isa.SPRef(1), isa.Int(14)}},
	}
	for _, l := range loops {
		k, _ := kernels.ByName(l.kernel)
		var tm *isa.Template
		for _, c := range compile(b, k.File(), k.Source).Templates {
			if strings.HasPrefix(c.Name, l.tmpl) {
				tm = c
			}
		}
		if tm == nil || tm.NParams != len(l.params) {
			b.Fatalf("%s: no loop template %s taking %d parameters", l.kernel, l.tmpl, len(l.params))
		}
		b.Run(l.kernel, func(b *testing.B) {
			x := &isa.Exec{Backend: stub{}, Decoded: tm.Decoded(), F: make([]isa.Value, tm.NSlots), Watch: isa.None}
			var instrs int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(x.F)
				copy(x.F, l.params)
				x.PC, x.N = 0, 0
				st := isa.Run(x)
				for st == isa.End { // the SEND ends a run
					st = isa.Run(x)
				}
				if st != isa.Halt {
					b.Fatalf("run stopped with %d at pc %d", st, x.PC)
				}
				instrs += x.N
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}
