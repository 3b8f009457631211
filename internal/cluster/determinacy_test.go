package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// Determinacy (Church-Rosser) tests on free-running goroutines: a
// single-assignment dataflow program must produce identical results however
// its operations are scheduled. Every kernel runs under every row of
// knobRows at 1, 2, 4 and 8 PEs, alone, with a worker killed mid-run, and
// with every row's jobs at once on one fleet, and must gather the
// simulator's arrays bit for bit: values and written-masks. The mirror
// kernel's consumers race ahead of its producers and defer remote reads;
// the triangular and triread kernels' skewed load makes the steal rows
// migrate SPs; the relax kernel's drifting skew makes the adapt rows move
// Range Filter bounds mid-run. The seeded sweep (sched_test.go) crosses six
// of the rows with seeded schedules.

// kernelN is every kernel's size in these tests and in the seeded sweep:
// big enough to spread arrays over every PE count (n*n is at least 8 pages
// of 8 elements), small enough to run the matrix in seconds.
const kernelN = 10

// knobRow is one named knob combination.
type knobRow struct {
	name string
	cfg  Config
}

// knobRows is every knob combination the determinacy tests run; none may
// be observable in the results. Each runs on 8-element pages. The evict
// rows cap each shard at two pages, so CLOCK evictions and refetches happen
// mid-run (a refetched page carries the same immutable data); on that floor
// the heat rows' governor and prefetcher fire too; the trace rows' small
// ring exercises the drop-oldest path, and trace frames never move the
// four-counter sums. Free-running, the adapt rows probe at fastProbe.
var knobRows = []knobRow{
	{"base", Config{}},
	{"steal", Config{Steal: true}},
	{"adapt", Config{Adapt: true}},
	{"adapt+steal", Config{Adapt: true, Steal: true}},
	{"evict", Config{CachePages: 2}},
	{"evict+adapt+steal", Config{CachePages: 2, Adapt: true, Steal: true}},
	{"heat+evict", Config{CachePages: 2, Heat: true}},
	{"heat+evict+adapt+steal", Config{CachePages: 2, Heat: true, Adapt: true, Steal: true}},
	{"trace", Config{Trace: true, TraceCap: 256}},
	{"trace+evict+adapt", Config{CachePages: 2, Adapt: true, Trace: true, TraceCap: 256}},
	{"heat+evict+adapt+steal+trace", Config{CachePages: 2, Heat: true, Adapt: true, Steal: true,
		Trace: true, TraceCap: 256}},
}

// rowNamed returns the knobRows row called name.
func rowNamed(t testing.TB, name string) knobRow {
	i := slices.IndexFunc(knobRows, func(r knobRow) bool { return r.name == name })
	if i < 0 {
		t.Fatalf("unknown knob row %q", name)
	}
	return knobRows[i]
}

// fastProbe is the adapt rows' probe cadence on free-running goroutines:
// rebinds ride probe rounds, and at 20µs they land inside these small runs.
const fastProbe = 20 * time.Microsecond

// killAfterFrames is the early kill: PE killPE dies on the first frame it
// sends past this many once it has been sent a spawn. Probe acks count, so
// the kill fires mid-run even on a PE whose computation is entirely local.
const killAfterFrames = 2

// seams are a test fleet's unexported settings, set between OpenFleet and
// its first Submit: the drivers' probe cadence (0 keeps probeInterval) and
// the channel transport's fault injector, which kills PE pe on the first
// frame it sends past after (0: never).
type seams struct {
	probe time.Duration
	pe    int
	after int64
}

func (s seams) set(f *Fleet) {
	if s.probe > 0 {
		f.probe = s.probe
	}
	if s.after > 0 {
		f.cnet.arm(s.pe, s.after)
	}
}

// execWith runs prog as Execute does, on a fleet with s set.
func execWith(ctx context.Context, prog *isa.Program, cfg Config, s seams, args ...isa.Value) (*Result, error) {
	f, err := OpenFleet(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s.set(f)
	return f.Submit(ctx, prog, cfg, args...)
}

// agree runs r's kernel free-running under row at pes PEs, PE killPE dying
// after `after` frames when after > 0, and checks the run.
func (r *kernelRef) agree(row knobRow, pes int, after int64) *Result {
	t := r.t
	t.Helper()
	cfg := row.cfg
	cfg.NumPEs, cfg.PageElems = pes, 8
	s := seams{pe: killPE, after: after}
	if cfg.Adapt {
		s.probe = fastProbe
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := execWith(ctx, r.prog, cfg, s, r.k.Args(kernelN)...)
	if err == nil {
		err = r.check(cfg, res, after)
	}
	if err != nil {
		t.Fatalf("%s %s@%d+kill%d: %v", r.k.Name, row.name, pes, after, err)
	}
	return res
}

// check checks a free-running run under cfg: the simulator's arrays, trace
// events on a traced run, and a re-run after a kill by killAfterFrames,
// which always fires before termination because probe acks advance the
// kill counter every round (a later kill can outlast a small run).
func (r *kernelRef) check(cfg Config, res *Result, after int64) error {
	if err := diffArrays(res, r.vals, r.masks); err != nil {
		return err
	}
	if cfg.Trace && (res.Trace == nil || res.Trace.Events() == 0) {
		return errors.New("no trace events gathered")
	}
	if after > 0 && after <= killAfterFrames && res.Stats.Recoveries < 1 {
		return fmt.Errorf("Recoveries = %d, want >= 1", res.Stats.Recoveries)
	}
	return nil
}

// TestBackendAgreement runs every kernel under every row at 1, 2, 4 and 8
// PEs, and the simulator at 2, 4 and 8 PEs, against the simulator at 1. It
// logs how many runs of each row rebound: on relax, the adapt rows' should.
func TestBackendAgreement(t *testing.T) {
	t.Parallel()
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			r := newKernelRef(t, k.Name)
			rebound := make(map[string]int)
			defer func() { t.Logf("runs that rebound, by row: %v", rebound) }()
			for _, pes := range []int{1, 2, 4, 8} {
				if pes > 1 {
					vals, masks := simArraysMasked(t, r.prog, pes, k.Arrays, k.Args(kernelN)...)
					for name := range r.vals {
						if err := diffArray(name, vals[name], masks[name], r.vals[name], r.masks[name]); err != nil {
							t.Fatalf("sim@%d: %v", pes, err)
						}
					}
				}
				for _, row := range knobRows {
					if r.agree(row, pes, 0).Stats.Rebounds > 0 {
						rebound[row.name]++
					}
				}
			}
		})
	}
}

// TestBackendAgreementWithWorkerKill crosses every row with a worker death:
// PE 1 killed after 2 and after 8 frames, at 2, 4 and 8 PEs.
func TestBackendAgreementWithWorkerKill(t *testing.T) {
	t.Parallel()
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			r := newKernelRef(t, k.Name)
			for _, row := range knobRows {
				for _, pes := range []int{2, 4, 8} {
					for _, after := range []int64{killAfterFrames, 8} {
						r.agree(row, pes, after)
					}
				}
			}
		})
	}
}

// TestKillIndexSweep kills PE 1 after every frame index from 1 to 64 on
// the kernels and rows whose remote reads join in-flight pages: matmul,
// heat and relax at 2 and 4 PEs, under the base, evict and heat+evict
// rows, so kills fall between a page request and the page the reads that
// joined it wait on, and under the steal and heat+evict+adapt+steal rows,
// so they also fall between a steal grant and the tokens it forwards.
// Every run must match the simulator, and each row's unkilled matmul and
// heat runs (2 and 4 PEs together) must make joins, or the sweep would not
// cover them.
func TestKillIndexSweep(t *testing.T) {
	t.Parallel()
	rows := []string{"base", "evict", "heat+evict", "steal", "heat+evict+adapt+steal"}
	for _, name := range []string{"matmul", "heat", "relax"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := newKernelRef(t, name)
			for _, row := range rows {
				var joins int64
				for _, pes := range []int{2, 4} {
					joins += r.agree(rowNamed(t, row), pes, 0).Stats.ReadJoins
					for after := int64(1); after <= 64; after++ {
						r.agree(rowNamed(t, row), pes, after)
					}
				}
				if name != "relax" && joins == 0 {
					t.Errorf("%s %s: no unkilled read joined an in-flight page", name, row)
				}
			}
		})
	}
}

// TestBackendAgreementConcurrentJobs submits every kernel under every row
// at once to one fleet. The fleet multiplexes every job over the same
// workers and wires, so any leak between jobs' state (shards, run queues,
// termination counters, trace rings) shows up as a bitwise diff.
func TestBackendAgreementConcurrentJobs(t *testing.T) { concurrentJobs(t, 0) }

// TestKnobGauntlet runs every row's jobs at once on a fleet whose PE 1
// dies mid-run, so the kill can land while another job gathers its
// results, and exports a traced run of a job that ran again after a kill.
func TestKnobGauntlet(t *testing.T) {
	t.Run("fleet", func(t *testing.T) { concurrentJobs(t, 8) })
	t.Run("traced-export", func(t *testing.T) {
		k, prog := compileKernel(t, "relax")
		cfg := Config{NumPEs: 8, Steal: true, Adapt: true, CachePages: 2, Trace: true}
		res, err := execWith(testCtx(t), prog, cfg, seams{pe: killPE, after: killAfterFrames}, k.Args(24)...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Recoveries < 1 {
			t.Fatalf("Recoveries = %d: the exported trace is of no re-run", res.Stats.Recoveries)
		}
		tr := res.Trace
		if tr == nil || tr.NumPEs != 8 || len(tr.PEs) != 8 {
			t.Fatalf("Trace = %+v, want an 8-PE trace", tr)
		}
		for pe, p := range tr.PEs {
			if len(p.Events) == 0 {
				t.Errorf("pe %d gathered no trace events", pe)
			}
		}
		if err := trace.WriteChrome(io.Discard, tr, nil); err != nil {
			t.Errorf("Chrome export: %v", err)
		}
		if err := trace.WriteTimelineCSV(io.Discard, tr.Timeline); err != nil {
			t.Errorf("timeline export: %v", err)
		}
	})
}

// concurrentJobs opens a 4-PE fleet probing at fastProbe, PE 1 dying after
// `after` frames when after > 0, submits every kernel under every row at
// once, and checks each job against the simulator.
func concurrentJobs(t *testing.T, after int64) {
	type job struct {
		r   *kernelRef
		row knobRow
		res *Result
		err error
	}
	var jobs []job
	for _, k := range kernels.All() {
		r := newKernelRef(t, k.Name)
		for _, row := range knobRows {
			row.cfg.PageElems = 8
			jobs = append(jobs, job{r: r, row: row})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	f, err := OpenFleet(ctx, Config{NumPEs: 4, MaxJobs: len(jobs) + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seams{probe: fastProbe, pe: killPE, after: after}.set(f)

	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			j.res, j.err = f.Submit(ctx, j.r.prog, j.row.cfg, j.r.k.Args(kernelN)...)
		}(&jobs[i])
	}
	wg.Wait()
	for _, j := range jobs {
		if j.err == nil {
			j.err = j.r.check(j.row.cfg, j.res, 0)
		}
		if j.err != nil {
			t.Fatalf("fleet %s/%s: %v", j.r.k.Name, j.row.name, j.err)
		}
	}
}
