package cluster

import (
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

// TestAdaptRelaxAgreesWithSimAndRebinds runs the drifting-skew kernel with
// adaptation on at several PE counts and checks both halves of the
// contract: the results stay bit-for-bit identical to the simulator no
// matter how the bounds moved, and the coordinator actually moved them
// (rebound broadcasts were observed wherever a rebind is possible).
//
// Free-running, whether a rebind lands before a run this small is over is
// a race between the probe timer and the interpreter, so the rebind half
// runs on the pumped schedule: the same workers and the same coordinator,
// with a probe round every few pumping rounds instead of every few
// microseconds. The free-running half keeps checking agreement with the
// bounds moving whenever they happen to.
func TestAdaptRelaxAgreesWithSimAndRebinds(t *testing.T) {
	k, prog := compileKernel(t, "relax")
	args := k.Args(12)
	wantVals, wantMasks := simArraysMasked(t, prog, 1, k.Arrays, args...)
	for _, pes := range []int{2, 4, 8} {
		res, err := Execute(testCtx(t), prog, Config{
			NumPEs:    pes,
			PageElems: 8,
			Adapt:     true,
			// A tight probe cadence makes rebinds land between the tiny
			// test sweeps instead of after the run is already over.
			ProbeInterval: 20 * time.Microsecond,
		}, args...)
		if err != nil {
			t.Fatalf("adapt@%d: %v", pes, err)
		}
		checkAgainstSimMasked(t, res, wantVals, wantMasks)

		coord := &pumpedCoord{ad: newAdaptCoord(pes), every: 8}
		ws, arrays := pumpedRun(t, *k, 12, pes, Config{Adapt: true}, nil, coord)
		checkGathered(t, arrays, wantVals, wantMasks)
		if coord.ad.rebounds == 0 || len(ws[0].adapt.cuts) == 0 {
			t.Errorf("adapt@%d: no rebound broadcasts — adaptation never engaged", pes)
		}
		t.Logf("adapt@%d: rebounds=%d in %d probe rounds (pumped), %d free-running",
			pes, coord.ad.rebounds, coord.round, res.Stats.Rebounds)
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
		res, err := Execute(testCtx(t), prog, Config{
			NumPEs:        4,
			PageElems:     8,
			Adapt:         true,
			Steal:         true,
			Latency:       latency,
			ProbeInterval: 20 * time.Microsecond,
		}, args...)
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
