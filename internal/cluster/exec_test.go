package cluster

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/istructure"
)

// Tests and benchmarks pinning the interpreter hot path (roadmap baseline
// layer (a)): a single-PE worker stepped by hand, so nothing but
// worker.step, the executor and the shard run — no transport, no driver,
// no goroutines.

func instr(op isa.Opcode, dst, a, b int, args ...int) isa.Instr {
	in := isa.NewInstr(op)
	in.Dst, in.A, in.B, in.Args = dst, a, b, args
	return in
}

func constant(dst int, v isa.Value) isa.Instr {
	in := isa.NewInstr(isa.CONST)
	in.Dst, in.Imm = dst, v
	return in
}

func branch(op isa.Opcode, a, target int) isa.Instr {
	in := isa.NewInstr(op)
	in.A, in.Target = a, target
	return in
}

const none = isa.None

// hotPrograms builds one program of templates that each take the trip
// count n (and, for reads, an array handle):
//
//	0 scalar:  n iterations of 6 scalar/control instructions
//	1 rw:      ALLOC A[n], then n iterations of 8 instructions with one
//	           local AWRITE and one local AREAD of A[i]
//	2 read:    n iterations of 6 instructions with one local AREAD of a
//	           pre-filled array passed as the second argument
//	3 spawner: spawns n instances of template 4 (IADD; HALT), 5 per child
//	5 copy:    the spawner as a distributed loop copy, loop variable i
//	6 read4:   n iterations of 12 instructions with one local AREAD of
//	           each of four pre-filled arrays passed as arguments 2-5
func hotPrograms() *isa.Program {
	scalar := []isa.Instr{
		constant(1, isa.Int(0)),        // i
		constant(2, isa.Int(1)),        // one
		constant(4, isa.Float(0.5)),    // acc
		constant(5, isa.Float(1.0001)), // x
		instr(isa.CMPLT, 3, 1, 0),      // 4: c = i < n
		branch(isa.BRFALSE, 3, 10),
		instr(isa.FMUL, 4, 4, 5),
		instr(isa.FADD, 4, 4, 5),
		instr(isa.IADD, 1, 1, 2),
		branch(isa.JUMP, none, 4),
		isa.NewInstr(isa.HALT),
	}
	alloc := instr(isa.ALLOC, 4, none, none, 0)
	alloc.Comment = "A"
	rw := []isa.Instr{
		constant(1, isa.Int(1)),     // i (arrays are 1-based)
		constant(2, isa.Int(1)),     // one
		constant(7, isa.Float(0)),   // acc
		alloc,                       // A = array(n)
		instr(isa.CMPLE, 3, 1, 0),   // 4: c = i <= n
		branch(isa.BRFALSE, 3, 12),  //
		instr(isa.ITOF, 5, 1, none), // v = float(i)
		instr(isa.AWRITE, none, 4, 5, 1),
		instr(isa.AREAD, 6, 4, none, 1),
		instr(isa.FADD, 7, 7, 6), // consumes the read
		instr(isa.IADD, 1, 1, 2),
		branch(isa.JUMP, none, 4),
		isa.NewInstr(isa.HALT),
	}
	read := []isa.Instr{
		constant(2, isa.Int(1)),   // i
		constant(3, isa.Int(1)),   // one
		constant(6, isa.Float(0)), // acc
		instr(isa.CMPLE, 4, 2, 0), // 3: c = i <= n
		branch(isa.BRFALSE, 4, 9),
		instr(isa.AREAD, 5, 1, none, 2),
		instr(isa.FADD, 6, 6, 5),
		instr(isa.IADD, 2, 2, 3),
		branch(isa.JUMP, none, 3),
		isa.NewInstr(isa.HALT),
	}
	read4 := []isa.Instr{
		constant(5, isa.Int(1)),   // i
		constant(6, isa.Int(1)),   // one
		constant(7, isa.Float(0)), // acc
		instr(isa.CMPLE, 8, 5, 0), // 3: c = i <= n
		branch(isa.BRFALSE, 8, 15),
	}
	for a := 1; a <= 4; a++ {
		read4 = append(read4, instr(isa.AREAD, 9, a, none, 5), instr(isa.FADD, 7, 7, 9))
	}
	read4 = append(read4, instr(isa.IADD, 5, 5, 6), branch(isa.JUMP, none, 3), isa.NewInstr(isa.HALT))
	spawn := instr(isa.SPAWN, none, none, none, 1)
	spawn.Imm = isa.Int(4)
	spawner := []isa.Instr{
		constant(1, isa.Int(0)),   // i
		constant(2, isa.Int(1)),   // one
		instr(isa.CMPLT, 3, 1, 0), // 2: c = i < n
		branch(isa.BRFALSE, 3, 7),
		spawn, // child(i)
		instr(isa.IADD, 1, 1, 2),
		branch(isa.JUMP, none, 2),
		isa.NewInstr(isa.HALT),
	}
	child := []isa.Instr{instr(isa.IADD, 1, 0, 0), isa.NewInstr(isa.HALT)}
	return &isa.Program{Templates: []*isa.Template{
		{ID: 0, Name: "scalar", Kind: isa.TmplMain, NParams: 1, NSlots: 6, Code: scalar},
		{ID: 1, Name: "rw", Kind: isa.TmplMain, NParams: 1, NSlots: 8, Code: rw},
		{ID: 2, Name: "read", Kind: isa.TmplMain, NParams: 2, NSlots: 7, Code: read},
		{ID: 3, Name: "spawner", Kind: isa.TmplMain, NParams: 1, NSlots: 4, Code: spawner},
		{ID: 4, Name: "child", Kind: isa.TmplFunc, NParams: 1, NSlots: 2, Code: child},
		{ID: 5, Name: "copy", Kind: isa.TmplLoop, NParams: 1, NSlots: 4, Code: spawner,
			Distributed: true, Loop: &isa.LoopInfo{Var: "i", VarSlot: 1, LimitSlot: 0}},
		{ID: 6, Name: "read4", Kind: isa.TmplMain, NParams: 5, NSlots: 10, Code: read4},
	}}
}

// hotWorker is a single-PE worker plus the driver endpoint its ALLOC
// broadcasts land on.
type hotWorker struct {
	*worker
	driver *jobEndpoint
}

func newHotWorker(tb testing.TB) hotWorker {
	tb.Helper()
	prog := hotPrograms()
	if err := prog.Validate(); err != nil {
		tb.Fatal(err)
	}
	eps := newChanTransport(1, 0)
	return hotWorker{newWorker(0, &Config{NumPEs: 1, PageElems: 32}, prog, eps[0]), eps[1]}
}

// run executes one instance of template tmpl to quiescence and returns the
// number of instructions it took.
func (w hotWorker) run(tb testing.TB, tmpl int, args ...isa.Value) int64 {
	before := w.instrs
	w.instantiate(w.prog.Template(tmpl), args)
	for w.readyHead != len(w.ready) {
		w.step()
	}
	for {
		m, ok := w.driver.in.tryRecv()
		if !ok {
			break
		}
		releaseMsg(m) // as driver.handle does, so each run reuses the frames the last one sent
	}
	if w.failed || len(w.insts) != 0 {
		tb.Fatalf("template %d: failed=%v, %d SPs still live", tmpl, w.failed, len(w.insts))
	}
	return w.instrs - before
}

// filledArray installs a local n-element array with every element written,
// under sequence number seq.
func (w hotWorker) filledArray(tb testing.TB, seq int64, n int) isa.Value {
	tb.Helper()
	h, err := istructure.NewHeader(packID(0, seq), "R", []int{n}, w.geo.PageElems, 1, 0, false)
	if err != nil {
		tb.Fatal(err)
	}
	w.installArray(h)
	for off := 0; off < n; off++ {
		if _, _, err := w.shard.Write(h.ID, off, isa.Float(float64(off))); err != nil {
			tb.Fatal(err)
		}
	}
	return isa.Array(h.ID)
}

// TestExecAllocFree pins the hot path's allocation behaviour: doubling the
// trip count of a scalar loop, or of a loop doing a local AWRITE and AREAD
// per iteration, must not add a single allocation — whatever a run
// allocates (the ALLOC's storage, its broadcast) is per run, not per
// instruction.
func TestExecAllocFree(t *testing.T) {
	w := newHotWorker(t)
	arr := w.filledArray(t, 1<<20, 4096)
	for _, tc := range []struct {
		name string
		tmpl int
		args func(n int64) []isa.Value
	}{
		{"scalar", 0, func(n int64) []isa.Value { return []isa.Value{isa.Int(n)} }},
		{"write+read", 1, func(n int64) []isa.Value { return []isa.Value{isa.Int(n)} }},
		{"read", 2, func(n int64) []isa.Value { return []isa.Value{isa.Int(n), arr} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var instrs [2]int64
			var allocs [2]float64
			for i, n := range []int64{1024, 2048} {
				args := tc.args(n)
				allocs[i] = testing.AllocsPerRun(20, func() { instrs[i] = w.run(t, tc.tmpl, args...) })
			}
			if instrs[1] < instrs[0]+1024*6 {
				t.Fatalf("doubling the trip count ran %d instructions against %d", instrs[1], instrs[0])
			}
			if allocs[1] != allocs[0] {
				t.Fatalf("%d more instructions cost %.1f more allocations (%.1f vs %.1f per run)",
					instrs[1]-instrs[0], allocs[1]-allocs[0], allocs[1], allocs[0])
			}
		})
	}
}

// TestSpawnHaltAllocs: once the free list is warm, a spawn/halt cycle
// allocates at most once per SP instance.
func TestSpawnHaltAllocs(t *testing.T) {
	const n = 512
	w := newHotWorker(t)
	w.run(t, 3, isa.Int(n)) // warm the free list, the insts map and the deque
	allocs := testing.AllocsPerRun(20, func() { w.run(t, 3, isa.Int(n)) })
	if perSP := allocs / (n + 1); perSP > 1 {
		t.Fatalf("%.2f allocations per SP instance after warm-up, want <= 1", perSP)
	}
}

// TestAdaptBillsEachIteration pins Config.Adapt's cost attribution: a
// distributed loop copy charges each completed instruction to the value its
// loop variable holds once the instruction is done (nothing while the
// variable holds no integer), HALT is not charged, and a child it spawns
// charges its own instructions to the iteration that spawned it.
func TestAdaptBillsEachIteration(t *testing.T) {
	const n = 3
	w := newHotWorker(t)
	w.adapt = newAdaptState()
	sp := w.instantiate(w.prog.Template(5), []isa.Value{isa.Int(n)})
	sp.costLoop, sp.costSweep = 5, 77
	for w.readyHead != len(w.ready) {
		w.step()
	}
	// The copy runs CONST i, CONST one, then per iteration CMPLT, BRFALSE,
	// SPAWN, IADD i, JUMP: iteration 0 gets the two CONSTs (i is 0 from
	// the first) and its first three, every iteration after it the IADD
	// and JUMP that moved i there plus three more, and iteration n the
	// closing IADD, JUMP, CMPLT and BRFALSE. Each child adds its IADD.
	want := map[int64]int64{0: 2 + 3 + 1, 1: 2 + 3 + 1, 2: 2 + 3 + 1, n: 4}
	got := map[int64]int64{}
	for k, c := range w.adapt.costAcc {
		if k.loop != 5 || k.sweep != 77 {
			t.Fatalf("charge to loop %d sweep %d", k.loop, k.sweep)
		}
		got[k.iter] = c
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("charges by iteration %v, want %v", got, want)
	}
}

// benchExec runs template tmpl with trip count n and, after it, arrays
// pre-filled n-element arrays.
func benchExec(b *testing.B, tmpl int, n int64, arrays int) {
	w := newHotWorker(b)
	args := []isa.Value{isa.Int(n)}
	for i := range arrays {
		args = append(args, w.filledArray(b, 1<<20+int64(i), int(n)))
	}
	w.run(b, tmpl, args...)
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		instrs += w.run(b, tmpl, args...)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkWorkerExecScalar: 6 scalar/control instructions per iteration.
func BenchmarkWorkerExecScalar(b *testing.B) { benchExec(b, 0, 4096, 0) }

// BenchmarkWorkerExecLocalRead: one local AREAD hit in every 6 instructions.
func BenchmarkWorkerExecLocalRead(b *testing.B) { benchExec(b, 2, 4096, 1) }

// BenchmarkWorkerExecLocalRead4: one local AREAD hit in every 3
// instructions, rotating over four arrays as SIMPLE's loops do.
func BenchmarkWorkerExecLocalRead4(b *testing.B) { benchExec(b, 6, 4096, 4) }

// BenchmarkWorkerExecSpawnHalt: one SPAWN and one child (IADD; HALT) in
// every 5 instructions.
func BenchmarkWorkerExecSpawnHalt(b *testing.B) { benchExec(b, 3, 1024, 0) }
