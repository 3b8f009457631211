package pods_test

import (
	"context"
	"strings"
	"testing"
	"time"

	pods "repro"
	"repro/internal/graph"
	"repro/internal/isa"
)

const fillSrc = `
func main(n: int) {
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i * 10 + j);
		}
	}
}
`

func TestFacadeSimulate(t *testing.T) {
	p, err := pods.Compile("fill.id", fillSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Simulate(pods.SimConfig{NumPEs: 4}, pods.Int(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("no virtual time")
	}
	vals, mask, dims, err := res.Array("A")
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != 8 || dims[1] != 8 || !mask[0] || vals[0] != 11 {
		t.Fatalf("A[1,1]=%v (dims %v)", vals[0], dims)
	}
	if got := res.Arrays(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("Arrays() = %v", got)
	}
	if !strings.Contains(p.PartitionReport(), "distribute") {
		t.Errorf("partition report:\n%s", p.PartitionReport())
	}
	if !strings.Contains(p.Listing(), "SPAWND") {
		t.Error("listing should show the distributing L operator")
	}
}

func TestFacadeExecute(t *testing.T) {
	p := pods.MustCompile("ret.id", `
func main(a: int, b: int) -> int {
	return a * b + 1;
}`)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := p.ExecuteCluster(ctx, pods.ClusterConfig{NumPEs: 2}, pods.Int(6), pods.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value == nil || res.Value.I != 43 {
		t.Fatalf("result = %+v, want 43", res.Value)
	}
}

func TestFacadeCentralizedAblation(t *testing.T) {
	full, err := pods.Compile("fill.id", fillSrc)
	if err != nil {
		t.Fatal(err)
	}
	cent, err := pods.CompileCentralized("fill.id", fillSrc)
	if err != nil {
		t.Fatal(err)
	}
	rFull, err := full.Simulate(pods.SimConfig{NumPEs: 8}, pods.Int(16))
	if err != nil {
		t.Fatal(err)
	}
	rCent, err := cent.Simulate(pods.SimConfig{NumPEs: 8}, pods.Int(16))
	if err != nil {
		t.Fatal(err)
	}
	if rFull.Time >= rCent.Time {
		t.Errorf("distribution should help: full %d >= centralized %d", rFull.Time, rCent.Time)
	}
}

func TestFacadeFromGraph(t *testing.T) {
	b := pods.NewGraphBuilder()
	mb := b.NewBlock("main", graph.BlockMain, nil)
	x := mb.Const(isa.Int(20))
	y := mb.Const(isa.Int(22))
	s := mb.Binary(graph.OpIAdd, isa.KindInt, x, y)
	mb.Return(s, isa.KindInt)
	p, err := pods.FromGraph(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Simulate(pods.SimConfig{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MainValue == nil || res.MainValue.I != 42 {
		t.Fatalf("result %+v, want 42", res.MainValue)
	}
}

func TestFacadeCompileError(t *testing.T) {
	if _, err := pods.Compile("bad.id", "func main() { x = ; }"); err == nil {
		t.Fatal("want compile error")
	}
}

// TestDistributionBoundary: both backends spread an ALLOCD array over the
// PEs from two pages up, and only then. One element short, the array stays
// on its allocating PE, so the serial sum there reads nothing remote; at
// exactly two pages the second page lives on the other PE.
func TestDistributionBoundary(t *testing.T) {
	p := pods.MustCompile("sum.id", `
func main(n: int) -> float {
	A = array(n);
	for i = 1 to n {
		A[i] = float(i);
	}
	s = 0.0;
	for k = 1 to n {
		next s = s + A[k];
	}
	return s;
}`)
	const page = 8
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range []int{2*page - 1, 2 * page} {
		spread, sum := n >= 2*page, float64(n*(n+1)/2)
		sres, err := p.Simulate(pods.SimConfig{NumPEs: 2, PageElems: page}, pods.Int(int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		if sres.MainValue.F != sum || (sres.Counts.RemoteReads > 0) != spread {
			t.Errorf("sim, n=%d: sum %v (want %v), %d remote reads, want spread=%v",
				n, sres.MainValue.F, sum, sres.Counts.RemoteReads, spread)
		}
		cres, err := p.ExecuteCluster(ctx, pods.ClusterConfig{NumPEs: 2, PageElems: page}, pods.Int(int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		st := cres.Stats()
		remote := st.CacheHits + st.CacheMisses + st.ReadJoins
		if cres.Value.F != sum || (remote > 0) != spread {
			t.Errorf("cluster, n=%d: sum %v (want %v), %d remote reads, want spread=%v",
				n, cres.Value.F, sum, remote, spread)
		}
	}
}
