package sim

import (
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// uniformFillProgram distributes a 1-D fill with the uniform Range Filter
// (UNIFLO/UNIFHI) instead of ownership ranges.
func uniformFillProgram() *isa.Program {
	// loop(A, init, limit): slots 0=A 1=init 2=limit 3=i 4=lim 5=one
	//   6=cond 7=val 8=uLo 9=uHi
	l := newAsm(1, "uloop", isa.TmplLoop, 3, 10)
	l.move(3, 1)
	l.move(4, 2)
	l.own(isa.UNIFLO, 8, 3, 4)
	l.own(isa.UNIFHI, 9, 3, 4)
	l.move(3, 8)
	l.move(4, 9)
	l.konst(5, isa.Int(1))
	l.label("head")
	l.bin(isa.CMPGT, 6, 3, 4)
	l.brtrue(6, "exit")
	l.bin(isa.IMUL, 7, 3, 3)
	l.awrite(0, 7, 3)
	l.bin(isa.IADD, 3, 3, 5)
	l.jump("head")
	l.label("exit")
	l.halt()
	l.t.Distributed = true
	l.t.RFKind = isa.RFUniform

	a := newAsm(0, "main", isa.TmplMain, 1, 3)
	a.alloc(isa.ALLOCD, 1, "A", 0)
	a.konst(2, isa.Int(1))
	a.spawn(isa.SPAWND, 1, 1, 2, 0)
	a.halt()
	return &isa.Program{Templates: []*isa.Template{a.done(), l.done()}, EntryID: 0}
}

// TestUniformFilterTilesRange property: for any n and PE count, the uniform
// block split covers every index exactly once.
func TestUniformFilterTilesRange(t *testing.T) {
	f := func(nU, pesU uint8) bool {
		n := int(nU%60) + 1
		pes := int(pesU%16) + 1
		m, err := New(uniformFillProgram(), Config{NumPEs: pes, PageElems: 8})
		if err != nil {
			return false
		}
		if _, err := m.Run(isa.Int(int64(n))); err != nil {
			t.Logf("n=%d pes=%d: %v", n, pes, err)
			return false
		}
		vals, mask, _, err := m.ReadArray("A")
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if !mask[i] || vals[i] != float64((i+1)*(i+1)) {
				t.Logf("n=%d pes=%d: A[%d]=%v written=%v", n, pes, i+1, vals[i], mask[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMorePEsThanRows: a distributed fill where most PEs own nothing must
// still terminate with the correct result (empty RF ranges). The 8-element
// array is two 4-element pages, so it is spread over the 16 PEs.
func TestMorePEsThanRows(t *testing.T) {
	m, err := New(distributedFillProgram(), Config{NumPEs: 16, PageElems: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(isa.Int(8)); err != nil {
		t.Fatal(err)
	}
	vals, mask, _, _ := m.ReadArray("A")
	for i := 0; i < 8; i++ {
		if !mask[i] || vals[i] != float64(3*(i+1)) {
			t.Fatalf("A[%d]=%v written=%v", i+1, vals[i], mask[i])
		}
	}
}

// TestRemoteWriteAndDeferredRemoteRead exercises the cross-PE write path
// plus a remote read queued before its producer writes.
func TestRemoteWriteAndDeferredRemoteRead(t *testing.T) {
	// reader(A): reads A[n] (owned by the last PE), writes A[1]+read → A[2].
	r := newAsm(1, "reader", isa.TmplFunc, 2, 6)
	// slots: 0=A 1=n 2=tmp 3=two 4=sum
	r.aread(2, 0, 1) // A[n] — remote for PE0, absent until writer runs
	r.konst(3, isa.Int(2))
	r.bin(isa.FADD, 4, 2, 2)
	r.awrite(0, 4, 3)
	r.halt()

	// writer(A, n): writes A[n] = 21.
	w := newAsm(2, "writer", isa.TmplFunc, 2, 4)
	w.konst(2, isa.Float(21))
	w.awrite(0, 2, 1)
	w.halt()

	// main(n): A = allocd(n); spawn reader; spawn writer.
	a := newAsm(0, "main", isa.TmplMain, 1, 3)
	a.alloc(isa.ALLOCD, 1, "A", 0)
	a.spawn(isa.SPAWN, 1, 1, 0)
	a.spawn(isa.SPAWN, 2, 1, 0)
	a.halt()
	prog := &isa.Program{Templates: []*isa.Template{a.done(), r.done(), w.done()}, EntryID: 0}

	m, err := New(prog, Config{NumPEs: 4, PageElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(isa.Int(64))
	if err != nil {
		t.Fatal(err)
	}
	vals, mask, _, _ := m.ReadArray("A")
	if !mask[1] || vals[1] != 42 {
		t.Fatalf("A[2]=%v written=%v, want 42", vals[1], mask[1])
	}
	if res.Counts.RemoteReads == 0 {
		t.Error("expected remote reads")
	}
}

func TestStallModeDeterministicAndCorrect(t *testing.T) {
	// The P&R baseline must still produce identical array contents.
	for _, stall := range []bool{false, true} {
		m, err := New(distributedFillProgram(), Config{NumPEs: 4, PageElems: 8, Stall: stall})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(isa.Int(64)); err != nil {
			t.Fatalf("stall=%v: %v", stall, err)
		}
		vals, _, _, _ := m.ReadArray("A")
		for i := 0; i < 64; i++ {
			if vals[i] != float64(3*(i+1)) {
				t.Fatalf("stall=%v: A[%d]=%v", stall, i+1, vals[i])
			}
		}
	}
}

func TestDisableCacheStillCorrect(t *testing.T) {
	m, err := New(deferredReadProgram(), Config{NumPEs: 1, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	vals, _, _, _ := m.ReadArray("A")
	if vals[1] != 11 {
		t.Fatalf("A[2]=%v want 11", vals[1])
	}
}

func TestMaxEventsGuard(t *testing.T) {
	// An SP spinning in an infinite loop must hit the event/instruction
	// guard rather than hang. Build: loop forever incrementing a slot and
	// writing different array cells (each write is an event).
	a := newAsm(0, "main", isa.TmplMain, 0, 6)
	a.konst(3, isa.Int(1000000))
	a.alloc(isa.ALLOC, 0, "A", 3)
	a.konst(1, isa.Int(1)).konst(2, isa.Int(1))
	a.label("head")
	a.un(isa.ITOF, 4, 1)
	a.awrite(0, 4, 1)
	a.bin(isa.IADD, 1, 1, 2)
	a.jump("head")
	prog := &isa.Program{Templates: []*isa.Template{a.done()}, EntryID: 0}
	m, err := New(prog, Config{NumPEs: 1, MaxEvents: 5000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "events") {
		t.Fatalf("err = %v, want event-guard error", err)
	}
}

func TestResultUtilizationAccessors(t *testing.T) {
	m, err := New(fillLoopProgram(), Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(isa.Int(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization("EU") <= 0 || res.Utilization("EU") > 1 {
		t.Errorf("EU util = %v", res.Utilization("EU"))
	}
	if res.Utilization("MS") != res.Utilization("MU") {
		t.Error("MS must alias MU (the paper's Figure 8 label)")
	}
	if res.Utilization("bogus") != 0 {
		t.Error("unknown unit should be 0")
	}
	if !strings.Contains(res.String(), "EU=") {
		t.Errorf("summary: %s", res.String())
	}
	if res.Seconds() <= 0 {
		t.Error("Seconds() must be positive")
	}
}

func TestReadArrayUnknownName(t *testing.T) {
	m, err := New(fillLoopProgram(), Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(isa.Int(4)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.ReadArray("nope"); err == nil {
		t.Fatal("unknown array should error")
	}
	names := m.ArrayNames()
	if len(names) != 1 || names[0] != "A" {
		t.Fatalf("names = %v", names)
	}
}

func TestBoundsErrorFailsRun(t *testing.T) {
	a := newAsm(0, "main", isa.TmplMain, 0, 4)
	a.konst(3, isa.Int(4))
	a.alloc(isa.ALLOC, 0, "A", 3)
	a.konst(2, isa.Int(99)).konst(1, isa.Int(5))
	a.awrite(0, 1, 2) // A[99] out of bounds
	a.halt()
	prog := &isa.Program{Templates: []*isa.Template{a.done()}, EntryID: 0}
	m, err := New(prog, Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want bounds error", err)
	}
}

func TestSpawnArgMismatchFails(t *testing.T) {
	c := newAsm(1, "child", isa.TmplFunc, 3, 4)
	c.halt()
	a := newAsm(0, "main", isa.TmplMain, 0, 2)
	a.konst(0, isa.Int(1))
	a.spawn(isa.SPAWN, 1, 0) // child wants 3 args, gets 1
	a.halt()
	prog := &isa.Program{Templates: []*isa.Template{a.done(), c.done()}, EntryID: 0}
	m, err := New(prog, Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("arg-count mismatch should fail")
	}
}

// TestTraceOutput pins the lifecycle trace byte for byte (recorded before
// the event core was rebuilt): the lines, their order and their timestamps.
func TestTraceOutput(t *testing.T) {
	var buf strings.Builder
	m, err := New(deferredReadProgram(), Config{NumPEs: 1, Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"spawn SP#", "alloc \"A\"", "block SP#", "unblock SP#", "halt SP#"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	const golden = "testdata/trace_deferred.txt"
	if *UpdateGolden {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("trace differs from %s:\n%s", golden, out)
	}
}

func TestPerPEAndImbalance(t *testing.T) {
	m, err := New(distributedFillProgram(), Config{NumPEs: 4, PageElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(isa.Int(64))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LoadImbalance(); got < 1.0 || got > 2.0 {
		t.Errorf("imbalance = %.2f for a uniform fill, want near 1", got)
	}
	tbl := res.PerPE()
	if !strings.Contains(tbl, "PE") || strings.Count(tbl, "\n") != 5 {
		t.Errorf("per-PE table:\n%s", tbl)
	}
}
