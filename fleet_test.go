// Fleet admission at the facade: an over-budget job fails alone while its
// neighbours on the same fleet still match a solo run. The concurrent-jobs
// determinacy tests, every kernel under every knob row at once on one
// fleet, are internal/cluster's TestBackendAgreementConcurrentJobs and
// TestKnobGauntlet.
package pods_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	pods "repro"
	"repro/internal/kernels"
)

// TestFleetBudgetRejectionIsolation pins the admission-control contract:
// an over-budget job fails with a budget error while neighbors submitted
// concurrently to the same fleet still match their solo runs exactly.
func TestFleetBudgetRejectionIsolation(t *testing.T) {
	const fleetPEs, n = 4, 10
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	k, _ := kernels.ByName("matmul")
	p, err := pods.Compile(k.File(), k.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pods.ClusterConfig{PageElems: 8}
	solo, err := p.ExecuteCluster(ctx, pods.ClusterConfig{NumPEs: fleetPEs, PageElems: 8}, k.Args(n)...)
	if err != nil {
		t.Fatal(err)
	}
	want := arrays(t, k, solo)

	fleet, err := pods.OpenClusterFleet(ctx, pods.ClusterConfig{NumPEs: fleetPEs})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	const neighbors = 3
	var wg sync.WaitGroup
	errs := make([]error, neighbors)
	results := make([]*pods.ClusterResult, neighbors)
	for i := 0; i < neighbors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = fleet.Submit(ctx, p, cfg, k.Args(n)...)
		}(i)
	}
	// Concurrently, a job whose element budget cannot even hold one of
	// matmul's arrays: it must fail — with a budget error, not a hang or
	// a transport error — without touching the neighbors.
	over := cfg
	over.MaxElems = 1
	_, err = fleet.Submit(ctx, p, over, k.Args(n)...)
	if err == nil {
		t.Fatal("over-budget job succeeded; want a budget rejection")
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("over-budget job failed with %v; want a budget error", err)
	}
	wg.Wait()
	for i := 0; i < neighbors; i++ {
		if errs[i] != nil {
			t.Fatalf("neighbor %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(arrays(t, k, results[i]), want) {
			t.Errorf("neighbor %d: arrays differ from the solo run's", i)
		}
	}
}

// arrays reads every array of k from a run: values, written-masks and
// shapes.
func arrays(t *testing.T, k kernels.Kernel, res *pods.ClusterResult) []any {
	t.Helper()
	var out []any
	for _, name := range k.Arrays {
		vals, mask, dims, err := res.Array(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, vals, mask, dims)
	}
	return out
}
