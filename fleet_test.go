// Concurrent-jobs determinacy: many programs running at once on one
// persistent fleet must each produce exactly the arrays the simulator
// produces for them alone. The fleet multiplexes every job over the same workers and
// wires, so this is the end-to-end check that job-keyed state (shards,
// run queues, termination counters, recovery logs, trace rings) really
// isolates tenants — any cross-job leak shows up as a bitwise diff.
package pods_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	pods "repro"
	"repro/internal/kernels"
)

// TestBackendAgreementConcurrentJobs submits every kernel under every
// knobSets row at once to one fleet.
func TestBackendAgreementConcurrentJobs(t *testing.T) {
	runConcurrentJobs(t, pods.ClusterConfig{})
}

// runConcurrentJobs opens a 4-PE fleet with fleetCfg's fleet-level fields,
// submits every kernel under every knobSets row at once, and checks each
// job against the simulator bit for bit.
func runConcurrentJobs(t *testing.T, fleetCfg pods.ClusterConfig) {
	const fleetPEs = 4
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	type jobCase struct {
		k     kernels.Kernel
		p     *pods.Program
		label string
		cfg   pods.ClusterConfig
		want  arraySet
	}
	var cases []jobCase
	for _, k := range kernels.All() {
		p, want := compileWithReference(t, k)
		for _, ks := range knobSets {
			cases = append(cases, jobCase{k: k, p: p, label: k.Name + "/" + ks.name, cfg: ks.cfg, want: want})
		}
	}

	// One fleet, every job in flight at once.
	fleetCfg.NumPEs, fleetCfg.MaxJobs = fleetPEs, len(cases)+1
	fleet, err := pods.OpenClusterFleet(ctx, fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	var wg sync.WaitGroup
	errs := make([]error, len(cases))
	results := make([]*pods.ClusterResult, len(cases))
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cases[i]
			results[i], errs[i] = fleet.Submit(ctx, c.p, c.cfg, c.k.Args(determinacyN)...)
		}(i)
	}
	wg.Wait()

	for i, c := range cases {
		if errs[i] != nil {
			t.Fatalf("fleet %s: %v", c.label, errs[i])
		}
		assertSame(t, "fleet "+c.label, gather(t, c.k, c.label, results[i].Array), c.want)
		checkTraced(t, "fleet "+c.label, c.cfg, results[i])
	}
}

// TestFleetBudgetRejectionIsolation pins the admission-control contract:
// an over-budget job fails with a budget error while neighbors submitted
// concurrently to the same fleet still match their solo runs exactly.
func TestFleetBudgetRejectionIsolation(t *testing.T) {
	const fleetPEs = 4
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	k, _ := kernels.ByName("matmul")
	p, err := pods.Compile(k.File(), k.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pods.ClusterConfig{PageElems: determinacyPage}
	solo, err := p.ExecuteCluster(ctx, withPEs(cfg, fleetPEs), k.Args(determinacyN)...)
	if err != nil {
		t.Fatal(err)
	}
	want := gather(t, k, "solo", solo.Array)

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
			results[i], errs[i] = fleet.Submit(ctx, p, cfg, k.Args(determinacyN)...)
		}(i)
	}
	// Concurrently, a job whose element budget cannot even hold one of
	// matmul's arrays: it must fail — with a budget error, not a hang or
	// a transport error — without touching the neighbors.
	over := cfg
	over.MaxElems = 1
	_, err = fleet.Submit(ctx, p, over, k.Args(determinacyN)...)
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
		assertSame(t, fmt.Sprintf("neighbor %d", i), gather(t, k, "neighbor", results[i].Array), want)
	}
}

// withPEs returns cfg with the PE count set (solo-run helper; fleet
// submissions inherit the count from the fleet instead).
func withPEs(cfg pods.ClusterConfig, pes int) pods.ClusterConfig {
	cfg.NumPEs = pes
	return cfg
}
