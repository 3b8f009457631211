package translate_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/translate"
)

// buildFill2D builds: main(n,m) { A=alloc(n,m); for i { for j { A[i,j]=i*100+j } } }.
func buildFill2D(t *testing.T) *graph.Program {
	t.Helper()
	bl := graph.NewBuilder()

	mb := bl.NewBlock("main", graph.BlockMain, []graph.Param{
		{Name: "n", Type: isa.KindInt}, {Name: "m", Type: isa.KindInt},
	})

	// Inner j-loop block: params init, limit, A, i.
	jb := bl.NewBlock("j.loop", graph.BlockLoop, []graph.Param{
		{Name: "init", Type: isa.KindInt}, {Name: "limit", Type: isa.KindInt},
		{Name: "A", Type: isa.KindArray}, {Name: "i", Type: isa.KindInt},
	})
	jb.SetLoop(&graph.LoopMeta{Var: "j"})
	{
		arr := jb.Param(2)
		i := jb.Param(3)
		j := jb.LoopVar()
		hundred := jb.Const(isa.Int(100))
		v := jb.Binary(graph.OpIMul, isa.KindInt, i, hundred)
		v = jb.Binary(graph.OpIAdd, isa.KindInt, v, j)
		vf := jb.Unary(graph.OpItoF, isa.KindFloat, v)
		jb.AWrite("A", arr, []int{i, j}, vf, []graph.Subscript{graph.Sub("i", 0), graph.Sub("j", 0)})
	}

	// Outer i-loop block: params init, limit, A, m.
	ib := bl.NewBlock("i.loop", graph.BlockLoop, []graph.Param{
		{Name: "init", Type: isa.KindInt}, {Name: "limit", Type: isa.KindInt},
		{Name: "A", Type: isa.KindArray}, {Name: "m", Type: isa.KindInt},
	})
	ib.SetLoop(&graph.LoopMeta{Var: "i"})
	{
		arr := ib.Param(2)
		m := ib.Param(3)
		one := ib.Const(isa.Int(1))
		i := ib.LoopVar()
		ib.ForLoop(jb.Block(), one, m, []int{arr, i}, nil)
	}

	// main body.
	{
		n := mb.Param(0)
		mn := mb.Param(1)
		arr := mb.Alloc("A", []int{n, mn})
		one := mb.Const(isa.Int(1))
		mb.ForLoop(ib.Block(), one, n, []int{arr, mn}, nil)
	}

	gp, err := bl.Program()
	if err != nil {
		t.Fatal(err)
	}
	return gp
}

func TestTranslateFill2DStructure(t *testing.T) {
	gp := buildFill2D(t)
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	iloop := prog.Templates[2]
	if iloop.Kind != isa.TmplLoop || iloop.Loop == nil {
		t.Fatalf("i.loop not a loop template: %+v", iloop)
	}
	// Access rollup: i-loop must see the grandchild's write of A[i,j].
	found := false
	for _, a := range iloop.Loop.Accesses {
		if a.Array == "A" && a.IsWrite && len(a.Vars) == 2 && a.Vars[0] == "i" {
			found = true
		}
	}
	if !found {
		t.Fatalf("i.loop accesses missing rolled-up write of A: %+v", iloop.Loop.Accesses)
	}
	if iloop.Names["i"] != iloop.Loop.VarSlot {
		t.Error("loop var name not mapped to var slot")
	}
}

func TestPartitionFill2D(t *testing.T) {
	gp := buildFill2D(t)
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := partition.Partition(prog, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	iloop := prog.Templates[2]
	jloop := prog.Templates[1]
	if !iloop.Distributed || iloop.RFKind != isa.RFRow || iloop.RFArray != "A" {
		t.Fatalf("i.loop should be row-distributed on A: dist=%v kind=%v arr=%q\n%s",
			iloop.Distributed, iloop.RFKind, iloop.RFArray, rep)
	}
	if jloop.Distributed {
		t.Fatal("j.loop must stay local (one RF per nest)")
	}
	// main's spawn of i.loop must now be LD.
	main := prog.Templates[0]
	foundLD := false
	for _, in := range main.Code {
		if in.Op == isa.SPAWND && in.Imm.I == 2 {
			foundLD = true
		}
	}
	if !foundLD {
		t.Fatal("main should LD-spawn i.loop")
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("partitioned program invalid: %v", err)
	}
}

func runFill2D(t *testing.T, pes, n, m int) (*sim.Result, *sim.Machine) {
	t.Helper()
	gp := buildFill2D(t)
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Partition(prog, partition.Options{}); err != nil {
		t.Fatal(err)
	}
	mach, err := sim.New(prog, sim.Config{NumPEs: pes, PageElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run(isa.Int(int64(n)), isa.Int(int64(m)))
	if err != nil {
		t.Fatalf("PEs=%d: %v", pes, err)
	}
	return res, mach
}

func TestFill2DEndToEnd(t *testing.T) {
	const n, m = 12, 10
	for _, pes := range []int{1, 2, 4, 8} {
		_, mach := runFill2D(t, pes, n, m)
		vals, mask, dims, err := mach.ReadArray("A")
		if err != nil {
			t.Fatal(err)
		}
		if dims[0] != n || dims[1] != m {
			t.Fatalf("dims=%v", dims)
		}
		for i := 1; i <= n; i++ {
			for j := 1; j <= m; j++ {
				off := (i-1)*m + (j - 1)
				if !mask[off] {
					t.Fatalf("PEs=%d: A[%d,%d] never written", pes, i, j)
				}
				if want := float64(i*100 + j); vals[off] != want {
					t.Fatalf("PEs=%d: A[%d,%d]=%v want %v", pes, i, j, vals[off], want)
				}
			}
		}
	}
}

func TestFill2DSpeedsUp(t *testing.T) {
	r1, _ := runFill2D(t, 1, 32, 32)
	r8, _ := runFill2D(t, 8, 32, 32)
	if sp := float64(r1.Time) / float64(r8.Time); sp < 2.5 {
		t.Errorf("speed-up 1→8 = %.2f, want ≥ 2.5", sp)
	}
}

// buildSumLoop builds main() { s=0; for k=1..n { next s = s + k }; return s }
// exercising carried scalars and loop results.
func buildSumLoop(t *testing.T, n int64) *graph.Program {
	t.Helper()
	bl := graph.NewBuilder()
	mb := bl.NewBlock("main", graph.BlockMain, nil)

	kb := bl.NewBlock("k.loop", graph.BlockLoop, []graph.Param{
		{Name: "init", Type: isa.KindInt}, {Name: "limit", Type: isa.KindInt},
		{Name: "s", Type: isa.KindInt},
	})
	{
		s := kb.CarriedVar(0, isa.KindInt)
		k := kb.LoopVar()
		nxt := kb.Binary(graph.OpIAdd, isa.KindInt, s, k)
		kb.SetLoop(&graph.LoopMeta{Var: "k", Carried: []graph.Carried{{Name: "s", Type: isa.KindInt, NextNode: nxt}}})
	}

	one := mb.Const(isa.Int(1))
	lim := mb.Const(isa.Int(n))
	zero := mb.Const(isa.Int(0))
	loop := mb.ForLoop(kb.Block(), one, lim, nil, []int{zero})
	out := mb.LoopOut(loop, 0, isa.KindInt)
	mb.Return(out, isa.KindInt)

	gp, err := bl.Program()
	if err != nil {
		t.Fatal(err)
	}
	return gp
}

func TestCarriedScalarSum(t *testing.T) {
	gp := buildSumLoop(t, 100)
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := partition.Partition(prog, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The k-loop has a carried scalar → LCD → must not distribute.
	if prog.Templates[1].Distributed {
		t.Fatalf("carried-scalar loop distributed:\n%s", rep)
	}
	mach, err := sim.New(prog, sim.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MainValue == nil || res.MainValue.I != 5050 {
		t.Fatalf("sum = %+v, want 5050", res.MainValue)
	}
}

// TestTopoOrderIndependence checks the translator's ordering contract: the
// order nodes were *inserted* must not matter, only the dataflow arcs.
func TestTopoOrderIndependence(t *testing.T) {
	build := func(scrambled bool) *graph.Program {
		bl := graph.NewBuilder()
		mb := bl.NewBlock("main", graph.BlockMain, nil)
		if !scrambled {
			a := mb.Const(isa.Int(3))
			b := mb.Const(isa.Int(4))
			s := mb.Binary(graph.OpIAdd, isa.KindInt, a, b)
			p := mb.Binary(graph.OpIMul, isa.KindInt, s, s)
			mb.Return(p, isa.KindInt)
		} else {
			// Same dataflow, built with forward references patched after.
			b := mb.Block()
			b.Nodes = []*graph.Node{
				{ID: 0, Op: graph.OpIMul, Type: isa.KindInt, In: []int{1, 1}, HasValue: true},
				{ID: 1, Op: graph.OpIAdd, Type: isa.KindInt, In: []int{2, 3}, HasValue: true},
				{ID: 2, Op: graph.OpConst, Imm: isa.Int(3), Type: isa.KindInt, HasValue: true},
				{ID: 3, Op: graph.OpConst, Imm: isa.Int(4), Type: isa.KindInt, HasValue: true},
			}
			b.Body = []int{0, 1, 2, 3}
			b.Result = 0
			b.ResultType = isa.KindInt
		}
		gp, err := bl.Program()
		if err != nil {
			t.Fatal(err)
		}
		return gp
	}
	for _, scrambled := range []bool{false, true} {
		prog, err := translate.Translate(build(scrambled))
		if err != nil {
			t.Fatalf("scrambled=%v: %v", scrambled, err)
		}
		mach, err := sim.New(prog, sim.Config{NumPEs: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := mach.Run()
		if err != nil {
			t.Fatalf("scrambled=%v: %v", scrambled, err)
		}
		if res.MainValue == nil || res.MainValue.I != 49 {
			t.Fatalf("scrambled=%v: result %+v, want 49", scrambled, res.MainValue)
		}
	}
}

func TestDataflowCycleRejected(t *testing.T) {
	bl := graph.NewBuilder()
	mb := bl.NewBlock("main", graph.BlockMain, nil)
	b := mb.Block()
	b.Nodes = []*graph.Node{
		{ID: 0, Op: graph.OpIAdd, Type: isa.KindInt, In: []int{1, 1}, HasValue: true},
		{ID: 1, Op: graph.OpIAdd, Type: isa.KindInt, In: []int{0, 0}, HasValue: true},
	}
	b.Body = []int{0, 1}
	gp, err := bl.Program()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := translate.Translate(gp); err == nil {
		t.Fatal("cycle should be rejected")
	}
}

func TestDisableDistributionAblation(t *testing.T) {
	gp := buildFill2D(t)
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Partition(prog, partition.Options{DisableDistribution: true}); err != nil {
		t.Fatal(err)
	}
	for _, tm := range prog.Templates {
		if tm.Distributed {
			t.Fatal("DisableDistribution must leave all loops local")
		}
	}
	mach, err := sim.New(prog, sim.Config{NumPEs: 4, PageElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(isa.Int(8), isa.Int(8)); err != nil {
		t.Fatal(err)
	}
	vals, _, _, _ := mach.ReadArray("A")
	if vals[0] != 101 {
		t.Fatalf("A[1,1]=%v want 101", vals[0])
	}
}
