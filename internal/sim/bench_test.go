package sim_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/simple"
)

// BenchmarkSimSimple64x32 is the simulator's row in the per-layer table: one
// New + Run of SIMPLE 64×64 on 32 virtual PEs, the Figure 10 configuration
// the end-to-end benchmark's simple_sim workload times.
func BenchmarkSimSimple64x32(b *testing.B) {
	prog, err := bench.Compile("simple.id", simple.Source, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs, events int64
	for i := 0; i < b.N; i++ {
		m, err := sim.New(prog, sim.Config{NumPEs: 32})
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(isa.Int(64))
		if err != nil {
			b.Fatal(err)
		}
		instrs, events = res.Counts.Instructions, m.Events()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(instrs), "ns/instr")
	b.ReportMetric(float64(events), "events/op")
}

// TestSimAllocBudget keeps the event core allocation-free in steady state:
// what SIMPLE 16×16 on 8 PEs still allocates is its arrays, its shipped
// pages and the pools' growth to their peaks — under 0.1 objects per
// simulated instruction (about 1.0 before events and SP frames were pooled).
func TestSimAllocBudget(t *testing.T) {
	prog, err := bench.Compile("simple.id", simple.Source, true)
	if err != nil {
		t.Fatal(err)
	}
	var instrs int64
	allocs := testing.AllocsPerRun(5, func() {
		m, err := sim.New(prog, sim.Config{NumPEs: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(isa.Int(16))
		if err != nil {
			t.Fatal(err)
		}
		instrs = res.Counts.Instructions
	})
	if per := allocs / float64(instrs); per > 0.1 {
		t.Errorf("%.0f allocations for %d instructions: %.3f per instruction, budget 0.1", allocs, instrs, per)
	} else {
		t.Logf("%.0f allocations for %d instructions: %.3f per instruction", allocs, instrs, per)
	}
}
