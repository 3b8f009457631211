package cluster

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
)

// The seeded schedule sweep: every kernel under each row's knobs at 2, 4
// and 8 PEs, on many seeded harness schedules, plus a worker kill at every
// frame index of the first 64 on the kernels whose remote reads join
// in-flight pages. Each run must gather the simulator's arrays, declare
// termination only with no live SP and no data frame held or queued
// anywhere, and end within sweepRounds; a run whose PE died must end in a
// death, and the job's re-run on fresh workers must gather the
// simulator's arrays.

const sweepRounds = 1 << 16

// sweepRows are the knobRows rows the sweep crosses with every kernel. The
// adapt rows probe every 8 rounds, so rebinds land in these small runs; the
// other rows probe at the seeded cadence.
var sweepRows = []string{"base", "steal", "adapt", "evict", "heat+evict", "heat+evict+adapt+steal+trace"}

// schedCase names one sweep run; it is all a failure needs to replay.
type schedCase struct {
	kernel, row string
	pes         int
	seed        uint64
	kill        int64
}

func (c schedCase) String() string {
	return fmt.Sprintf("{%q, %q, %d, %d, %d}", c.kernel, c.row, c.pes, c.seed, c.kill)
}

// schedCases are committed sweep cases, replayed by TestScheduleCases: a
// failure the sweep finds lands here once mended. The sweep has found none;
// the one case kills PE 1 mid-run with every layer on.
var schedCases = []schedCase{
	{"relax", "heat+evict+adapt+steal+trace", 4, 33, 33},
}

// kernelRef is a kernel compiled once with its simulator arrays at 1 PE,
// and the seeded sweep's counts over the runs it checked.
type kernelRef struct {
	t            *testing.T
	k            kernels.Kernel
	prog         *isa.Program
	vals         map[string][]float64
	masks        map[string][]bool
	rounds, max  int64 // rounds run, and the most one run took
	kills, joins int64 // runs whose PE died; read joins in the unkilled runs
}

func newKernelRef(t *testing.T, name string) *kernelRef {
	k, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("unknown kernel %q", name)
	}
	r := &kernelRef{t: t, k: k, prog: compile(t, k.File(), k.Source)}
	r.vals, r.masks = simArraysMasked(t, r.prog, 1, k.Arrays, k.Args(kernelN)...)
	return r
}

// run makes one sweep run and checks it.
func (r *kernelRef) run(c schedCase) error {
	cfg := rowNamed(r.t, c.row).cfg
	cfg.NumPEs, cfg.PageElems = c.pes, 8
	sch := schedule{seed: c.seed, killAt: c.kill}
	if cfg.Adapt {
		sch.probe = 8
	}
	res, h, err := r.once(cfg, sch)
	if h.dead >= 0 {
		r.kills++
		var death *deathError
		if !errors.As(err, &death) {
			return fmt.Errorf("pe %d died, but the driver returned %v, not a death (result %v)", killPE, err, res != nil)
		}
		sch.killAt = 0
		res, _, err = r.once(cfg, sch)
	}
	if err != nil {
		return err
	}
	r.joins += res.Stats.ReadJoins
	return diffArrays(res, r.vals, r.masks)
}

func (r *kernelRef) once(cfg Config, sch schedule) (*Result, *harness, error) {
	h := newHarness(r.t, r.prog, cfg, sch)
	h.maxRounds = sweepRounds
	res, err := h.run(r.k.Args(kernelN)...)
	r.rounds += h.rounds
	r.max = max(r.max, h.rounds)
	return res, h, err
}

// sweep runs cases on one kernel's reference, reporting each failure
// with its replay line.
func (r *kernelRef) sweep(cases []schedCase) {
	t := r.t
	t.Helper()
	failed := 0
	for _, c := range cases {
		if err := r.run(c); err != nil {
			t.Errorf("%v: %v\n\treplay: add %v to schedCases and run go test -run TestScheduleCases", c, err, c)
			if failed++; failed == 5 {
				t.Fatal("stopping after 5 failures")
			}
		}
	}
	t.Logf("%d runs (%d killed), %d rounds, at most %d in one run, %d read joins", len(cases), r.kills, r.rounds, r.max, r.joins)
}

// TestSeededSchedules is the sweep without kills: seeds × every kernel ×
// every row × 2, 4 and 8 PEs.
func TestSeededSchedules(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			r := newKernelRef(t, k.Name)
			var cases []schedCase
			for _, row := range sweepRows {
				for _, pes := range []int{2, 4, 8} {
					for seed := uint64(1); seed <= sweepSeeds; seed++ {
						cases = append(cases, schedCase{k.Name, row, pes, seed, 0})
					}
				}
			}
			r.sweep(cases)
		})
	}
}

// TestKillSchedules kills PE 1 at each of its first 64 data frames and
// acks, on matmul, heat and relax at 2 and 4 PEs under every row, each kill
// index on its own seed.
func TestKillSchedules(t *testing.T) {
	for _, name := range []string{"matmul", "heat", "relax"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := newKernelRef(t, name)
			var cases []schedCase
			for _, row := range sweepRows {
				for _, pes := range []int{2, 4} {
					for kill := int64(1); kill <= 64; kill += killStride {
						cases = append(cases, schedCase{name, row, pes, uint64(kill), kill})
					}
				}
			}
			r.sweep(cases)
		})
	}
}

// TestScheduleCases replays the committed cases.
func TestScheduleCases(t *testing.T) {
	refs := make(map[string]*kernelRef)
	for _, c := range schedCases {
		if refs[c.kernel] == nil {
			refs[c.kernel] = newKernelRef(t, c.kernel)
		}
		refs[c.kernel].sweep([]schedCase{c})
	}
}

// TestScheduleReplays runs one sweep case 30 times: a seeded schedule
// must replay to the same round count, statistics and arrays. pipeline
// gathers several arrays, and each dump request's send draws a delay from
// the schedule's one rng, so the gather must send them in a fixed order.
func TestScheduleReplays(t *testing.T) {
	r := newKernelRef(t, "pipeline")
	cfg := rowNamed(t, "base").cfg
	cfg.NumPEs, cfg.PageElems = 2, 8
	var first *Result
	var rounds int64
	const runs = 30
	for i := 0; i < runs; i++ {
		res, h, err := r.once(cfg, schedule{seed: 7})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := diffArrays(res, r.vals, r.masks); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			first, rounds = res, h.rounds
			continue
		}
		if h.rounds != rounds || res.Stats != first.Stats || !slices.Equal(res.PEInstrs, first.PEInstrs) {
			t.Fatalf("run %d: %d rounds, %+v; run 0: %d rounds, %+v", i, h.rounds, res.Stats, rounds, first.Stats)
		}
	}
	t.Logf("%d runs of %d rounds each", runs, rounds)
}
