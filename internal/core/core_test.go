package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
)

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

func TestPipelineBothEngines(t *testing.T) {
	sys, err := core.CompileSource("t.id", src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	want := 0.0
	for i := 1; i <= n; i++ {
		want += float64(i) * 1.5
	}

	res, _, err := sys.Simulate(sim.Config{NumPEs: 4}, isa.Int(n))
	if err != nil {
		t.Fatal(err)
	}
	if res.MainValue == nil || res.MainValue.F != want {
		t.Fatalf("simulator: %+v, want %v", res.MainValue, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cres, err := sys.ExecuteCluster(ctx, cluster.Config{NumPEs: 4}, isa.Int(n))
	if err != nil {
		t.Fatal(err)
	}
	if cres.Value == nil || cres.Value.F() != want {
		t.Fatalf("cluster: %+v, want %v", cres.Value, want)
	}
}

func TestListingAndReport(t *testing.T) {
	sys, err := core.CompileSource("t.id", src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l := sys.Listing(); !strings.Contains(l, "main") || !strings.Contains(l, "HALT") {
		t.Errorf("listing:\n%s", l)
	}
	if r := sys.Report.String(); !strings.Contains(r, "distribute") {
		t.Errorf("report:\n%s", r)
	}
}

func TestDisableDistribution(t *testing.T) {
	sys, err := core.CompileSource("t.id", src, core.Options{DisableDistribution: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sys.Listing(), "SPAWND") {
		t.Error("centralized compile must not contain LD operators")
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	if _, err := core.CompileSource("t.id", "func main( {", core.Options{}); err == nil {
		t.Fatal("want parse error")
	}
}
