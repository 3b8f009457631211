package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/istructure"
)

// fillLoopProgram builds: main(n) { A = alloc(n); for i = 1..n { A[i] = i*2 } }
// as a single SP (no spawns) — the smallest complete machine exercise.
func fillLoopProgram() *isa.Program {
	// Slots: 0=n(param) 1=A 2=i 3=one 4=cond 5=val
	a := newAsm(0, "main", isa.TmplMain, 1, 6)
	a.alloc(isa.ALLOC, 1, "A", 0)
	a.konst(3, isa.Int(1))
	a.move(2, 3)
	a.label("head")
	a.bin(isa.CMPGT, 4, 2, 0)
	a.brtrue(4, "exit")
	a.bin(isa.IMUL, 5, 2, 3).bin(isa.IADD, 5, 5, 2) // val = i*1 + i = 2i
	a.awrite(1, 5, 2)
	a.bin(isa.IADD, 2, 2, 3)
	a.jump("head")
	a.label("exit")
	a.halt()
	return &isa.Program{Templates: []*isa.Template{a.done()}, EntryID: 0}
}

func TestSinglePEFillLoop(t *testing.T) {
	m, err := New(fillLoopProgram(), Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(isa.Int(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("virtual time = %d, want > 0", res.Time)
	}
	vals, mask, dims, err := m.ReadArray("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 1 || dims[0] != 8 {
		t.Fatalf("dims = %v, want [8]", dims)
	}
	for i := 0; i < 8; i++ {
		if !mask[i] {
			t.Fatalf("element %d never written", i)
		}
		if want := float64(2 * (i + 1)); vals[i] != want {
			t.Errorf("A[%d] = %v, want %v", i+1, vals[i], want)
		}
	}
	if res.Counts.LocalWrites != 8 {
		t.Errorf("LocalWrites = %d, want 8", res.Counts.LocalWrites)
	}
	if res.Counts.Instructions == 0 || res.PEs[0].EU == 0 {
		t.Error("no instructions or EU busy time recorded")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Result {
		m, err := New(fillLoopProgram(), Config{NumPEs: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(isa.Int(16))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Time != b.Time || a.Counts != b.Counts {
		t.Fatalf("non-deterministic simulation:\n%v\n%v", a, b)
	}
}

// deferredReadProgram: main spawns a child that reads A[1] (written later by
// main) and writes A[2] = A[1] + 1. Exercises deferred reads and unblocking.
func deferredReadProgram() *isa.Program {
	// child(A): slots 0=A 1=tmp 2=one 3=sum 4=idx1 5=idx2
	c := newAsm(1, "child", isa.TmplFunc, 1, 6)
	c.konst(4, isa.Int(1)).konst(5, isa.Int(2)).konst(2, isa.Int(1))
	c.aread(1, 0, 4)
	c.bin(isa.IADD, 3, 1, 2) // blocks until A[1] arrives
	c.awrite(0, 3, 5)
	c.halt()

	// main: slots 0=A 1=ten 2=idx1 3=n
	a := newAsm(0, "main", isa.TmplMain, 0, 4)
	a.konst(3, isa.Int(4))
	a.alloc(isa.ALLOC, 0, "A", 3)
	a.spawn(isa.SPAWN, 1, 0)
	a.konst(1, isa.Int(10)).konst(2, isa.Int(1))
	a.awrite(0, 1, 2)
	a.halt()
	return &isa.Program{Templates: []*isa.Template{a.done(), c.done()}, EntryID: 0}
}

func TestDeferredReadAcrossSPs(t *testing.T) {
	m, err := New(deferredReadProgram(), Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	vals, mask, _, err := m.ReadArray("A")
	if err != nil {
		t.Fatal(err)
	}
	if !mask[0] || !mask[1] {
		t.Fatalf("A[1],A[2] written = %v,%v; want both", mask[0], mask[1])
	}
	if vals[1] != 11 {
		t.Errorf("A[2] = %v, want 11", vals[1])
	}
	if res.Counts.SPsCreated != 2 {
		t.Errorf("SPsCreated = %d, want 2", res.Counts.SPsCreated)
	}
	if res.Counts.CtxSwitches == 0 {
		t.Error("expected at least one context switch (child blocked on A[1])")
	}
}

// returnProgram: main computes 6*7 and returns it to the environment.
func returnProgram() *isa.Program {
	// slots: 0=retRef(param) 1=retBase(param) 2=a 3=b 4=r
	a := newAsm(0, "main", isa.TmplMain, 2, 5)
	a.t.HasResult = true
	a.t.NResults = 1
	a.konst(2, isa.Int(6)).konst(3, isa.Int(7))
	a.bin(isa.IMUL, 4, 2, 3)
	a.send(0, 4, 1, 0)
	a.halt()
	return &isa.Program{Templates: []*isa.Template{a.done()}, EntryID: 0}
}

func TestMainReturnValue(t *testing.T) {
	m, err := New(returnProgram(), Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MainValue == nil || res.MainValue.I != 42 {
		t.Fatalf("MainValue = %+v, want 42", res.MainValue)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// main reads A[1] which nobody writes, then tries to use it.
	a := newAsm(0, "main", isa.TmplMain, 0, 4)
	a.konst(3, isa.Int(4))
	a.alloc(isa.ALLOC, 0, "A", 3)
	a.konst(2, isa.Int(1))
	a.aread(1, 0, 2)
	a.bin(isa.IADD, 1, 1, 2) // blocks forever
	a.halt()
	prog := &isa.Program{Templates: []*isa.Template{a.done()}, EntryID: 0}
	m, err := New(prog, Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if !strings.Contains(dl.Report, "main") {
		t.Errorf("deadlock report should name the SP: %s", dl.Report)
	}
}

func TestSingleAssignmentViolationDetected(t *testing.T) {
	a := newAsm(0, "main", isa.TmplMain, 0, 4)
	a.konst(3, isa.Int(4))
	a.alloc(isa.ALLOC, 0, "A", 3)
	a.konst(2, isa.Int(1)).konst(1, isa.Int(5))
	a.awrite(0, 1, 2)
	a.awrite(0, 1, 2)
	a.halt()
	prog := &isa.Program{Templates: []*isa.Template{a.done()}, EntryID: 0}
	m, err := New(prog, Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	var sav *istructure.SingleAssignmentError
	if !errors.As(err, &sav) {
		t.Fatalf("err = %v, want SingleAssignmentError", err)
	}
}

// distributedFillProgram hand-builds what the partitioner produces: main
// allocates a distributed array and LD-spawns a row loop whose bounds are
// clamped by a row Range Filter; the loop writes A[i] = 3i.
func distributedFillProgram() *isa.Program {
	// loop(A, init, limit): slots 0=A 1=init 2=limit 3=i 4=lim 5=one
	//   6=cond 7=val 8=rfLo 9=rfHi
	l := newAsm(1, "iloop", isa.TmplLoop, 3, 10)
	l.konst(5, isa.Int(1))
	l.move(3, 1)
	l.own(isa.ROWLO, 8, 0, isa.None)
	l.bin(isa.MAX, 3, 3, 8)
	l.move(4, 2)
	l.own(isa.ROWHI, 9, 0, isa.None)
	l.bin(isa.MIN, 4, 4, 9)
	l.label("head")
	l.bin(isa.CMPGT, 6, 3, 4)
	l.brtrue(6, "exit")
	l.bin(isa.IMUL, 7, 3, 5).bin(isa.IADD, 7, 7, 3).bin(isa.IADD, 7, 7, 3) // 3i
	l.awrite(0, 7, 3)
	l.bin(isa.IADD, 3, 3, 5)
	l.jump("head")
	l.label("exit")
	l.halt()
	l.t.Distributed = true
	l.t.RFKind = isa.RFRow

	// main(n): slots 0=n 1=A 2=initOne
	a := newAsm(0, "main", isa.TmplMain, 1, 3)
	a.alloc(isa.ALLOCD, 1, "A", 0)
	a.konst(2, isa.Int(1))
	a.spawn(isa.SPAWND, 1, 1, 2, 0)
	a.halt()
	return &isa.Program{Templates: []*isa.Template{a.done(), l.done()}, EntryID: 0}
}

func TestDistributedFillAcrossPEs(t *testing.T) {
	for _, pes := range []int{1, 2, 4, 8} {
		m, err := New(distributedFillProgram(), Config{NumPEs: pes, PageElems: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(isa.Int(64))
		if err != nil {
			t.Fatalf("PEs=%d: %v", pes, err)
		}
		vals, mask, _, err := m.ReadArray("A")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if !mask[i] {
				t.Fatalf("PEs=%d: A[%d] never written", pes, i+1)
			}
			if want := float64(3 * (i + 1)); vals[i] != want {
				t.Fatalf("PEs=%d: A[%d] = %v, want %v", pes, i+1, vals[i], want)
			}
		}
		if pes > 1 {
			if res.Counts.SPsCreated != int64(1+pes) {
				t.Errorf("PEs=%d: SPsCreated = %d, want %d (main + one loop copy per PE)", pes, res.Counts.SPsCreated, 1+pes)
			}
			// Row-aligned distribution: every write must be local.
			if res.Counts.RemoteWrites != 0 {
				t.Errorf("PEs=%d: RemoteWrites = %d, want 0 (RF follows ownership)", pes, res.Counts.RemoteWrites)
			}
		}
	}
}

func TestDistributedSpeedup(t *testing.T) {
	times := map[int]int64{}
	for _, pes := range []int{1, 8} {
		m, err := New(distributedFillProgram(), Config{NumPEs: pes, PageElems: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(isa.Int(1024))
		if err != nil {
			t.Fatal(err)
		}
		times[pes] = res.Time
	}
	speedup := float64(times[1]) / float64(times[8])
	if speedup < 3 {
		t.Errorf("speed-up 1→8 PEs = %.2f, want ≥ 3 (parallel row fill)", speedup)
	}
}

func TestStallModeSlower(t *testing.T) {
	// In control-driven baseline mode the child cannot hide the deferred
	// read latency, but results must be identical.
	for _, stall := range []bool{false, true} {
		m, err := New(deferredReadProgram(), Config{NumPEs: 1, Stall: stall})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("stall=%v: %v", stall, err)
		}
		vals, _, _, _ := m.ReadArray("A")
		if vals[1] != 11 {
			t.Fatalf("stall=%v: A[2] = %v, want 11", stall, vals[1])
		}
	}
}

func TestZeroOverheadFaster(t *testing.T) {
	run := func(zero bool) int64 {
		m, err := New(fillLoopProgram(), Config{NumPEs: 1, ZeroOverhead: zero})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(isa.Int(32))
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	with, without := run(false), run(true)
	if without >= with {
		t.Errorf("zero-overhead time %d should be < full time %d", without, with)
	}
}

func TestZeroOverheadRejectsMultiPE(t *testing.T) {
	if _, err := New(fillLoopProgram(), Config{NumPEs: 2, ZeroOverhead: true}); err == nil {
		t.Fatal("ZeroOverhead with 2 PEs should be rejected")
	}
}

func TestRunArgCountChecked(t *testing.T) {
	m, err := New(fillLoopProgram(), Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("missing args should fail")
	}
}
