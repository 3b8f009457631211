package simple_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/simple"
)

func compileSimple(t *testing.T, src string) (*isa.Program, *partition.Report) {
	t.Helper()
	prog, rep, err := core.Compile("simple.id", src, partition.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog, rep
}

func TestPartitioningDecisions(t *testing.T) {
	prog, rep := compileSimple(t, simple.Source)

	dist := map[string]isa.RFKind{}
	for _, d := range rep.Distributed {
		dist[d.Template] = d.Kind
	}

	// velocity_position and hydrodynamics outer loops: row-distributed.
	wantRow := []string{"velocity_position.i.L", "hydrodynamics.i.L", "main.i.L", "conduction.i.L"}
	for _, prefix := range wantRow {
		found := false
		for name, kind := range dist {
			if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
				found = true
				if kind != isa.RFRow {
					t.Errorf("%s distributed as %s, want row", name, kind)
				}
			}
		}
		if !found {
			t.Errorf("no distributed loop with prefix %q (got %v)", prefix, dist)
		}
	}
	// Conduction phase B (j3) must be uniform (ownership cannot be followed).
	foundUniform := false
	for name, kind := range dist {
		if len(name) >= 13 && name[:13] == "conduction.j3" && kind == isa.RFUniform {
			foundUniform = true
		}
	}
	if !foundUniform {
		t.Errorf("conduction column phase should be uniform-distributed: %v", dist)
	}
	// The sweeps carry scalars: LCDs recorded, never distributed.
	for _, prefix := range []string{"conduction.j.L", "conduction.j2", "conduction.i2", "conduction.i3"} {
		found := false
		for _, tm := range prog.Templates {
			if tm.Loop == nil || len(tm.Name) < len(prefix) || tm.Name[:len(prefix)] != prefix {
				continue
			}
			found = true
			if !tm.Loop.HasLCD {
				t.Errorf("sweep %s should have an LCD", tm.Name)
			}
			if tm.Distributed {
				t.Errorf("sweep %s must not be distributed", tm.Name)
			}
		}
		if !found {
			t.Errorf("no loop template with prefix %q", prefix)
		}
	}
}

// runSimple simulates the full step and returns the machine for readback.
func runSimple(t *testing.T, n, pes int) (*sim.Result, *sim.Machine) {
	t.Helper()
	prog, _ := compileSimple(t, simple.Source)
	m, err := sim.New(prog, sim.Config{NumPEs: pes})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(isa.Int(int64(n)))
	if err != nil {
		t.Fatalf("n=%d PEs=%d: %v", n, pes, err)
	}
	return res, m
}

func checkArray(t *testing.T, m *sim.Machine, name string, want []float64, n int, interiorOnly bool) {
	t.Helper()
	vals, mask, dims, err := m.ReadArray(name)
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != n || dims[1] != n {
		t.Fatalf("%s dims=%v", name, dims)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if interiorOnly && (i == 1 || i == n || j == 1 || j == n) {
				continue
			}
			off := (i-1)*n + (j - 1)
			if !mask[off] {
				t.Fatalf("%s[%d,%d] never written", name, i, j)
			}
			if d := math.Abs(vals[off] - want[off]); d > 1e-9*(1+math.Abs(want[off])) {
				t.Fatalf("%s[%d,%d] = %v, native %v (diff %g)", name, i, j, vals[off], want[off], d)
			}
		}
	}
}

func TestSimpleMatchesNative(t *testing.T) {
	const n = 10
	ref := simple.NewGrid(n)
	ref.Step()
	for _, pes := range []int{1, 4} {
		_, m := runSimple(t, n, pes)
		checkArray(t, m, "un", ref.Un, n, false)
		checkArray(t, m, "wn", ref.Wn, n, false)
		checkArray(t, m, "rn", ref.Rn, n, false)
		checkArray(t, m, "rhon", ref.Rhon, n, false)
		checkArray(t, m, "pn", ref.Pn, n, false)
		checkArray(t, m, "en", ref.En, n, false)
		checkArray(t, m, "tn", ref.Tn, n, false)
		checkArray(t, m, "th", ref.Th, n, false)
		checkArray(t, m, "t2", ref.T2, n, false)
		checkArray(t, m, "cpa", ref.Cpa, n, true)
		checkArray(t, m, "dpb", ref.Dpb, n, true)
	}
}

func TestSimpleDeterministicAcrossPEs(t *testing.T) {
	const n = 8
	var ref []float64
	for _, pes := range []int{1, 2, 3, 8} {
		_, m := runSimple(t, n, pes)
		vals, _, _, err := m.ReadArray("t2")
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = vals
			continue
		}
		for i := range vals {
			if vals[i] != ref[i] {
				t.Fatalf("PEs=%d: t2[%d]=%v != %v (Church-Rosser violated)", pes, i, vals[i], ref[i])
			}
		}
	}
}

func TestSimpleSpeedsUp(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 16
	r1, _ := runSimple(t, n, 1)
	r8, _ := runSimple(t, n, 8)
	sp := float64(r1.Time) / float64(r8.Time)
	if sp < 1.5 {
		t.Errorf("16×16 speed-up 1→8 PEs = %.2f, want ≥ 1.5", sp)
	}
	t.Logf("16×16: T1=%.2fms T8=%.2fms speedup=%.2f", float64(r1.Time)/1e6, float64(r8.Time)/1e6, sp)
}

func TestConductionOnlyMatchesNative(t *testing.T) {
	const n = 10
	ref := simple.NewGrid(n)
	ref.ConductionOnly()
	prog, _ := compileSimple(t, simple.ConductionSource)
	m, err := sim.New(prog, sim.Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(isa.Int(n)); err != nil {
		t.Fatal(err)
	}
	checkArray(t, m, "t2", ref.T2, n, false)
}

func TestEUIsBusiestUnit(t *testing.T) {
	res, _ := runSimple(t, 12, 4)
	eu := res.Utilization("EU")
	for _, u := range []string{"MU", "MM", "AM", "RU"} {
		if res.Utilization(u) >= eu {
			t.Errorf("unit %s utilization %.3f >= EU %.3f (EU should dominate, Figure 8)", u, res.Utilization(u), eu)
		}
	}
	if eu <= 0.05 {
		t.Errorf("EU utilization %.3f suspiciously low", eu)
	}
}
