package partition_test

import (
	"strings"
	"testing"

	"repro/internal/idlang"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/translate"
)

func compile(t *testing.T, src string) (*isa.Program, *partition.Report) {
	t.Helper()
	gp, err := idlang.Compile("p.id", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := partition.Partition(prog, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog, rep
}

// colFilterSrc has a loop-carried outer loop (running row scale) whose
// inner loop writes A[i,j] — §4.2.3's case: eliminate the RF at the outer
// level (it stays a single instance) and distribute the inner level with
// the in-row column filter of Figure 5.
const colFilterSrc = `
func main(n: int) {
	A = array(n, n);
	scale = 1.0;
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = scale * float(j);
		}
		next scale = scale + 1.0;
	}
}
`

func TestColumnRangeFilterChosen(t *testing.T) {
	prog, rep := compile(t, colFilterSrc)
	var outer, inner *isa.Template
	for _, tm := range prog.Templates {
		if tm.Loop == nil {
			continue
		}
		switch tm.Loop.Var {
		case "i":
			outer = tm
		case "j":
			inner = tm
		}
	}
	if outer == nil || inner == nil {
		t.Fatal("missing loop templates")
	}
	if !outer.Loop.HasLCD || outer.Distributed {
		t.Fatalf("outer loop: HasLCD=%v Distributed=%v, want LCD and centralized", outer.Loop.HasLCD, outer.Distributed)
	}
	if !inner.Distributed || inner.RFKind != isa.RFCol || inner.RFArray != "A" {
		t.Fatalf("inner loop: dist=%v kind=%v array=%q, want col filter on A\n%s",
			inner.Distributed, inner.RFKind, inner.RFArray, rep)
	}
	// The inner template must contain COLLO/COLHI keyed on the imported i.
	hasColOps := false
	for _, in := range inner.Code {
		if in.Op == isa.COLLO || in.Op == isa.COLHI {
			hasColOps = true
			if in.B != inner.Names["i"] {
				t.Errorf("column filter keyed on slot %d, want i's slot %d", in.B, inner.Names["i"])
			}
		}
	}
	if !hasColOps {
		t.Fatalf("no COLLO/COLHI in inner template:\n%s", inner.Listing())
	}
}

func TestColumnRangeFilterExecutes(t *testing.T) {
	prog, _ := compile(t, colFilterSrc)
	const n = 12
	for _, pes := range []int{1, 2, 4, 8} {
		m, err := sim.New(prog, sim.Config{NumPEs: pes, PageElems: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(isa.Int(n))
		if err != nil {
			t.Fatalf("PEs=%d: %v", pes, err)
		}
		vals, mask, _, err := m.ReadArray("A")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				off := (i-1)*n + j - 1
				if !mask[off] {
					t.Fatalf("PEs=%d: A[%d,%d] never written (RF ranges must tile every row)", pes, i, j)
				}
				if want := float64(i) * float64(j); vals[off] != want {
					t.Fatalf("PEs=%d: A[%d,%d]=%v want %v", pes, i, j, vals[off], want)
				}
			}
		}
		// With the in-row filter, each element is written by the PE that
		// owns it: all writes local.
		if pes > 1 && res.Counts.RemoteWrites != 0 {
			t.Errorf("PEs=%d: %d remote writes, want 0 (column RF follows ownership)", pes, res.Counts.RemoteWrites)
		}
	}
}

// descendingSrc distributes a downto loop (the interchanged min/max RF form
// of §4.2.2).
const descendingSrc = `
func main(n: int) {
	A = array(n, n);
	for i = n downto 1 {
		for j = 1 to n {
			A[i, j] = float(i * 1000 + j);
		}
	}
}
`

func TestDescendingRowFilter(t *testing.T) {
	prog, _ := compile(t, descendingSrc)
	var outer *isa.Template
	for _, tm := range prog.Templates {
		if tm.Loop != nil && tm.Loop.Var == "i" {
			outer = tm
		}
	}
	if outer == nil || !outer.Distributed || outer.RFKind != isa.RFRow {
		t.Fatalf("descending outer loop should be row-distributed: %+v", outer)
	}
	if !outer.Loop.Descending {
		t.Fatal("descending flag lost")
	}
	const n = 10
	for _, pes := range []int{1, 4} {
		m, err := sim.New(prog, sim.Config{NumPEs: pes, PageElems: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(isa.Int(n)); err != nil {
			t.Fatalf("PEs=%d: %v", pes, err)
		}
		vals, mask, _, _ := m.ReadArray("A")
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				off := (i-1)*n + j - 1
				if !mask[off] || vals[off] != float64(i*1000+j) {
					t.Fatalf("PEs=%d: A[%d,%d]=%v written=%v", pes, i, j, vals[off], mask[off])
				}
			}
		}
	}
}

// TestUniformFilterDescending exercises the uniform RF on a downto loop:
// offset writes prevent ownership-aligned filtering.
func TestUniformFilterDescending(t *testing.T) {
	src := `
func main(n: int) {
	A = array(n);
	B = array(n);
	for i = 1 to n {
		A[i] = float(i);
	}
	for k = n - 1 downto 1 {
		B[k] = A[k + 1] * 2.0;
	}
}`
	prog, _ := compile(t, src)
	var kloop *isa.Template
	for _, tm := range prog.Templates {
		if tm.Loop != nil && tm.Loop.Var == "k" {
			kloop = tm
		}
	}
	if kloop == nil {
		t.Fatal("no k loop")
	}
	if !kloop.Distributed || kloop.RFKind != isa.RFRow {
		// B[k] write: k in dim0 offset 0 → row filter even though A is read
		// at k+1. Check no LCD was wrongly detected.
		t.Fatalf("k loop: dist=%v kind=%v (HasLCD=%v)", kloop.Distributed, kloop.RFKind, kloop.Loop.HasLCD)
	}
	const n = 40
	for _, pes := range []int{1, 3, 8} {
		m, err := sim.New(prog, sim.Config{NumPEs: pes, PageElems: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(isa.Int(n)); err != nil {
			t.Fatalf("PEs=%d: %v", pes, err)
		}
		vals, mask, _, _ := m.ReadArray("B")
		for k := 1; k <= n-1; k++ {
			if !mask[k-1] || vals[k-1] != float64(k+1)*2 {
				t.Fatalf("PEs=%d: B[%d]=%v written=%v", pes, k, vals[k-1], mask[k-1])
			}
		}
	}
}

func TestKeepLocalAllocsOption(t *testing.T) {
	gp, err := idlang.Compile("p.id", descendingSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Partition(prog, partition.Options{KeepLocalAllocs: true}); err != nil {
		t.Fatal(err)
	}
	for _, tm := range prog.Templates {
		for _, in := range tm.Code {
			if in.Op == isa.ALLOCD {
				t.Fatal("KeepLocalAllocs must leave ALLOC untouched")
			}
		}
	}
}

func TestReportRendering(t *testing.T) {
	_, rep := compile(t, colFilterSrc)
	s := rep.String()
	if !strings.Contains(s, "distributing allocates") || !strings.Contains(s, "distribute") {
		t.Errorf("report: %s", s)
	}
}
