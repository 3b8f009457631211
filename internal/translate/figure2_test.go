package translate_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/sim"
)

// TestPaperFigure2 reproduces the paper's running example end to end:
//
//	A = matrix(50,10);
//	for i = 1 to 50
//	  for j = 1 to 10
//	    A[i,j] = f(i,j);
//
// built directly as a dataflow graph (Figure 2's three scopes: the outer
// allocation block, the i-loop, the j-loop), translated to three SPs,
// partitioned with the Range Filter exactly where Figure 5 places it (the
// i-level, keyed on A), and simulated on 1..32 PEs. f(i,j) = 100·i + j so
// every element identifies its writer.
func TestPaperFigure2(t *testing.T) {
	bl := graph.NewBuilder()

	mb := bl.NewBlock("main", graph.BlockMain, nil)

	jb := bl.NewBlock("j-loop", graph.BlockLoop, []graph.Param{
		{Name: "$init", Type: isa.KindInt}, {Name: "$limit", Type: isa.KindInt},
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

	ib := bl.NewBlock("i-loop", graph.BlockLoop, []graph.Param{
		{Name: "$init", Type: isa.KindInt}, {Name: "$limit", Type: isa.KindInt},
		{Name: "A", Type: isa.KindArray},
	})
	ib.SetLoop(&graph.LoopMeta{Var: "i"})
	{
		arr := ib.Param(2)
		one := ib.Const(isa.Int(1))
		ten := ib.Const(isa.Int(10))
		i := ib.LoopVar()
		ib.ForLoop(jb.Block(), one, ten, []int{arr, i}, nil)
	}

	{
		rows := mb.Const(isa.Int(50))
		cols := mb.Const(isa.Int(10))
		arr := mb.Alloc("A", []int{rows, cols})
		one := mb.Const(isa.Int(1))
		fifty := mb.Const(isa.Int(50))
		mb.ForLoop(ib.Block(), one, fifty, []int{arr}, nil)
	}

	gp, err := bl.Program()
	if err != nil {
		t.Fatal(err)
	}
	prog, rep, err := core.CompileGraph(gp, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Templates) != 3 {
		t.Fatalf("Figure 2 has three scopes; got %d SPs", len(prog.Templates))
	}
	if len(rep.Distributed) != 1 || rep.Distributed[0].Kind != isa.RFRow || rep.Distributed[0].Array != "A" {
		t.Fatalf("expected exactly the i-level row RF on A:\n%s", rep)
	}

	for _, pes := range []int{1, 4, 32} {
		m, err := sim.New(prog, sim.Config{NumPEs: pes})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("PEs=%d: %v", pes, err)
		}
		vals, mask, dims, err := m.ReadArray("A")
		if err != nil {
			t.Fatal(err)
		}
		if dims[0] != 50 || dims[1] != 10 {
			t.Fatalf("dims %v", dims)
		}
		for i := 1; i <= 50; i++ {
			for j := 1; j <= 10; j++ {
				off := (i-1)*10 + j - 1
				if !mask[off] || vals[off] != float64(100*i+j) {
					t.Fatalf("PEs=%d: A[%d,%d]=%v written=%v", pes, i, j, vals[off], mask[off])
				}
			}
		}
		// One SP instance per PE for the distributed i-loop, one j-loop SP
		// per row owned, plus main.
		if pes == 1 && res.Counts.SPsCreated != int64(1+1+50) {
			t.Errorf("1 PE: SPs = %d, want 52 (main + i-loop + 50 j-loops)", res.Counts.SPsCreated)
		}
		if pes == 32 && res.Counts.SPsCreated != int64(1+32+50) {
			t.Errorf("32 PEs: SPs = %d, want 83 (main + 32 i-loop copies + 50 j-loops)", res.Counts.SPsCreated)
		}
	}
}
