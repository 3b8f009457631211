package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestRecycledFrameStartsAbsent: an instance reused after HALT must not
// show its next life a slot its last life filled. "first" fills all four
// slots of its frame and halts; "second" has the same frame length, one
// parameter, and reads slot 2, which nothing sets — it has to block there.
func TestRecycledFrameStartsAbsent(t *testing.T) {
	// first(ret, v, w): slots 0..2 are parameters, 3 = w.
	f := newAsm(1, "first", isa.TmplFunc, 3, 4)
	f.move(3, 2)
	f.send(0, 1, isa.None, 5) // main's slot 5 = v: "I am about to halt"
	f.halt()

	// second(x): reads the never-set slot 2.
	s := newAsm(2, "second", isa.TmplFunc, 1, 4)
	s.move(3, 2)
	s.halt()

	// main: 0=self 1=v 2=w 4=copy of 5 5=first's token. It spawns second
	// only after first's token arrived — one Matching Unit service after
	// first's HALT was executed.
	a := newAsm(0, "main", isa.TmplMain, 0, 6)
	a.self(0).konst(1, isa.Int(7)).konst(2, isa.Int(9))
	a.spawn(isa.SPAWN, 1, 0, 1, 2)
	a.move(4, 5)
	a.spawn(isa.SPAWN, 2, 4)
	a.halt()

	prog := &isa.Program{Templates: []*isa.Template{a.done(), f.done(), s.done()}, EntryID: 0}
	m, err := New(prog, Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want second to deadlock on its unset slot", err)
	}
	if !strings.Contains(dl.Report, `"second"`) || !strings.Contains(dl.Report, "blocked on slot 2") {
		t.Errorf("deadlock report: %s", dl.Report)
	}
	// The test only means something if second really got first's instance.
	if n := len(m.freeSPs[4]); n != 0 {
		t.Errorf("%d free 4-slot instances left: second was not built from first's", n)
	}
	if second := m.sp(3); second == nil || second.frame[0] != isa.Int(7) {
		t.Errorf("second's parameter did not arrive: %+v", second)
	}
}

func TestRunTwiceRefused(t *testing.T) {
	m, err := New(fillLoopProgram(), Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Run(isa.Int(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(isa.Int(8)); err == nil || !strings.Contains(err.Error(), "Run called twice") {
		t.Fatalf("second Run: err = %v, want a refusal", err)
	}
	// The refusal must leave the finished run readable.
	if _, mask, _, err := m.ReadArray("A"); err != nil || !mask[7] || first.Counts.LocalWrites != 8 {
		t.Errorf("first run's results damaged: err=%v mask=%v", err, mask)
	}
}
