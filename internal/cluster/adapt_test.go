package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/kernels"
)

// compileKernel compiles a registry kernel through the shared pipeline.
func compileKernel(t *testing.T, name string) (*kernels.Kernel, *isa.Program) {
	t.Helper()
	k, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("unknown kernel %q", name)
	}
	return &k, compile(t, k.File(), k.Source)
}

// TestAdaptRelaxAgreesWithSimAndRebinds pins what adaptive repartitioning
// buys on the drifting-skew relax kernel, whose expensive rows rotate
// across sweeps so no fixed split stays right: n=48 (4 sweeps) on eight
// workers on the harness's zero schedule, with a probe cadence of 4 rounds
// (backing off as drive's cadence does) instead of microseconds. Adapt
// off, the makespan is 823,575 instructions at utilization 0.623; adapt
// on, 2 rebounds bring it to 618,270 at 0.830. Both arms repeat exactly on
// a second run and gather arrays bit-for-bit the simulator's, however the
// bounds moved.
func TestAdaptRelaxAgreesWithSimAndRebinds(t *testing.T) {
	k, _ := kernels.ByName("relax")
	type stats struct {
		makespan int64
		util     float64
		rebounds int64
	}
	for _, tc := range []struct {
		adapt bool
		want  stats
	}{
		{false, stats{823_575, 0.623, 0}},
		{true, stats{618_270, 0.830, 2}},
	} {
		pinTwice(t, fmt.Sprintf("adapt=%v", tc.adapt), tc.want, func() stats {
			_, res := harnessRun(t, k, 48, 8, Config{Adapt: tc.adapt}, schedule{probe: 4})
			st := stats{rebounds: res.Stats.Rebounds}
			st.makespan, st.util = makespan(res)
			return st
		})
	}
}

// TestAdaptWithStealingAgreesWithSim drives the full dynamic machinery at
// once: adaptive bounds moving iterations between sweeps while work
// stealing migrates SPs within them, plus injected transport latency so
// rebound broadcasts genuinely race fan-outs.
func TestAdaptWithStealingAgreesWithSim(t *testing.T) {
	k, prog := compileKernel(t, "relax")
	args := k.Args(12)
	wantVals, wantMasks := simArraysMasked(t, prog, 1, k.Arrays, args...)
	for _, latency := range []time.Duration{0, 200 * time.Microsecond} {
		cfg := Config{NumPEs: 4, PageElems: 8, Adapt: true, Steal: true, Latency: latency}
		res, err := execWith(testCtx(t), prog, cfg, seams{probe: fastProbe}, args...)
		if err != nil {
			t.Fatalf("adapt+steal latency=%v: %v", latency, err)
		}
		checkAgainstSimMasked(t, res, wantVals, wantMasks)
		t.Logf("adapt+steal latency=%v: rebounds=%d steals=%d",
			latency, res.Stats.Rebounds, res.Stats.Steals)
	}
}

// TestAdaptCoordSweepLifecycle drives the driver-side coordinator directly:
// sweeps are planned once their successor reports (plus one round), late
// stragglers for planned sweeps are ignored, and a balanced profile does
// not churn rebounds.
func TestAdaptCoordSweepLifecycle(t *testing.T) {
	a := newAdaptCoord(2)
	sweep1, sweep2 := packID(0, 1), packID(0, 2)

	// Sweep 1: iteration 1 dominates (the uniform split would cut at 2).
	a.merge(&Msg{Kind: KCostReport, Tmpl: 7, Sweep: sweep1,
		Lists: &MsgLists{Iters: []int64{1, 2, 3}, Costs: []int64{90, 10, 10}}}, 1)
	if out := a.tick(1); len(out) != 0 {
		t.Fatalf("round 1: nothing is finished yet, got %v", out)
	}
	if out := a.tick(2); len(out) != 0 {
		t.Fatalf("round 2: still only one sweep, got %v", out)
	}

	// Sweep 2 appears in round 3 → sweep 1 is finished, but the planner
	// must wait one more full round for stragglers.
	a.merge(&Msg{Kind: KCostReport, Tmpl: 7, Sweep: sweep2,
		Lists: &MsgLists{Iters: []int64{1}, Costs: []int64{80}}}, 3)
	if out := a.tick(3); len(out) != 0 {
		t.Fatalf("round 3: must wait a round for stragglers, got %v", out)
	}
	a.merge(&Msg{Kind: KCostReport, Tmpl: 7, Sweep: sweep1,
		Lists: &MsgLists{Iters: []int64{4}, Costs: []int64{10}}}, 4) // straggler arrives in time
	out := a.tick(4)
	if len(out) != 1 || out[0].tmpl != 7 {
		t.Fatalf("round 4: want one rebind for template 7, got %v", out)
	}
	// 90/10/10/10: the balanced split cuts after iteration 1 (makespan 90
	// vs the uniform split's 100 — a 10% improvement, over hysteresis).
	if len(out[0].cuts) != 1 || out[0].cuts[0] != 1 {
		t.Fatalf("cuts = %v, want [1]", out[0].cuts)
	}
	if a.rebounds != 1 {
		t.Fatalf("rebounds = %d, want 1", a.rebounds)
	}

	// A late report for the planned sweep 1 must be ignored, not revive it.
	a.merge(&Msg{Kind: KCostReport, Tmpl: 7, Sweep: sweep1,
		Lists: &MsgLists{Iters: []int64{1}, Costs: []int64{5}}}, 5)
	if lc := a.loops[7]; len(lc.order) != 1 || lc.order[0] != sweep2 {
		t.Fatalf("late report revived a planned sweep: order=%v", lc.order)
	}

	// Sweep 2 finishes (sweep 3 reports): its profile is already balanced
	// under the installed cuts, so hysteresis suppresses a new rebind.
	a.merge(&Msg{Kind: KCostReport, Tmpl: 7, Sweep: sweep2,
		Lists: &MsgLists{Iters: []int64{2, 3, 4}, Costs: []int64{26, 26, 26}}}, 5)
	a.merge(&Msg{Kind: KCostReport, Tmpl: 7, Sweep: packID(0, 3),
		Lists: &MsgLists{Iters: []int64{1}, Costs: []int64{70}}}, 6)
	if out := a.tick(7); len(out) != 0 {
		t.Fatalf("balanced profile must not churn, got %v", out)
	}
	if a.rebounds != 1 {
		t.Fatalf("rebounds = %d after churn check, want 1", a.rebounds)
	}
	if lc := a.loops[7]; len(lc.order) != 1 || len(lc.sweeps) != 1 {
		t.Fatalf("planned sweeps must be dropped: order=%v", lc.order)
	}
}
