package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/partition"
)

// TestCompileErrorsPropagate: a stage's error comes back with no program,
// naming the stage that failed.
func TestCompileErrorsPropagate(t *testing.T) {
	if prog, _, err := core.Compile("t.id", "func main( {", partition.Options{}); err == nil || prog != nil {
		t.Fatalf("want parse error and no program, got %v, %v", prog, err)
	}

	bl := graph.NewBuilder()
	b := bl.NewBlock("main", graph.BlockMain, nil).Block()
	b.Nodes = []*graph.Node{
		{ID: 0, Op: graph.OpIAdd, Type: isa.KindInt, In: []int{1, 1}, HasValue: true},
		{ID: 1, Op: graph.OpIAdd, Type: isa.KindInt, In: []int{0, 0}, HasValue: true},
	}
	b.Body = []int{0, 1}
	gp, err := bl.Program()
	if err != nil {
		t.Fatal(err)
	}
	if prog, _, err := core.CompileGraph(gp, partition.Options{}); err == nil || prog != nil || !strings.HasPrefix(err.Error(), "translate: ") {
		t.Fatalf("want translate-stage error, got %v", err)
	}
}

// TestDisableDistribution: a centralized compile inserts no LD operator.
func TestDisableDistribution(t *testing.T) {
	const src = `
func main(n: int) -> float {
	A = array(n);
	for i = 1 to n {
		A[i] = float(i) * 1.5;
	}
	s = 0.0;
	for k = 1 to n {
		next s = s + A[k];
	}
	return s;
}
`
	prog, _, err := core.Compile("t.id", src, partition.Options{DisableDistribution: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prog.Listing(), "SPAWND") {
		t.Error("centralized compile must not contain LD operators")
	}
}
