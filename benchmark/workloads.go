package main

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/simple"
)

// The load shape is fixed, not derived from the host, so hosts compare: two
// worker PEs and, on serve_mix, two closed-loop clients.
const (
	numPEs     = 2
	mixClients = 2
	simPEs     = 32 // the Figure 10 configuration
)

// jobSpec is one kind of job a workload submits: a program, its arguments
// and the per-job knobs.
type jobSpec struct {
	kernel string // program name; jobs of one kernel share a compiled program
	source string
	args   []isa.Value
	cfg    cluster.Config
	arrays []string // arrays that define the output; nil = every array allocated
	simple int      // mesh size when the program is SIMPLE (native check), else 0
}

// workload is one named set of inputs. A run of it is a closed loop: each
// client submits its next job only after the previous result is in hand
// and checked.
type workload struct {
	name, why string
	specs     []jobSpec
	order     func(seed int64) []int // job i runs specs[order[i%len]]; nil = specs[0] always
	clients   int
	tcp       bool // cluster over two in-process loopback ServeWorker listeners
	sim       bool // the simulator is the system under test, at simPEs virtual PEs
	maxJobs   int  // fleet admission bound
	tinyJobs  int  // jobs of the smoke test's run
	tailQ     float64
}

func kernelSpec(name string, n int, cfg cluster.Config) jobSpec {
	k, ok := kernels.ByName(name)
	if !ok {
		panic("benchmark: unknown kernel " + name)
	}
	return jobSpec{kernel: name, source: k.Source, args: k.Args(n), cfg: cfg, arrays: k.Arrays}
}

func simpleSpec(n int) jobSpec {
	return jobSpec{kernel: "simple", source: simple.Source, args: []isa.Value{isa.Int(int64(n))}, simple: n}
}

// mixSizes are the problem sizes serve_mix draws from.
var mixSizes = []int{10, 12, 14}

// mixKernels are serve_mix's four job kinds, each with its own knob set so
// every knob's plumbing runs under concurrency.
var mixKernels = []struct {
	name string
	cfg  cluster.Config
}{
	{"matmul", cluster.Config{PageElems: 8, CachePages: 4, Heat: true}},
	{"heat", cluster.Config{PageElems: 8, Steal: true}},
	{"relax", cluster.Config{PageElems: 8, Adapt: true}},
	{"triangular", cluster.Config{PageElems: 8, Steal: true}},
}

func mixSpecs(sizes []int) []jobSpec {
	var specs []jobSpec
	for _, k := range mixKernels {
		for _, n := range sizes {
			specs = append(specs, kernelSpec(k.name, n, k.cfg))
		}
	}
	return specs
}

// mixOrder draws the job stream from the seed: kind and size of every job.
// The stream outlasts any run (serve_mix completes under 1000 jobs/s).
func mixOrder(nspecs int) func(int64) []int {
	return func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		order := make([]int, 1<<16)
		for i := range order {
			order[i] = rng.Intn(nspecs)
		}
		return order
	}
}

// workloads returns the seven workloads; tiny shrinks every size for the
// smoke test (n <= 12, one job, 40 on serve_mix).
func workloads(tiny bool) []workload {
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	sizes := mixSizes
	if tiny {
		sizes = []int{8, 10}
	}
	mix := mixSpecs(sizes)
	return []workload{
		{
			name: "relax_chan", tailQ: 0.75, clients: 1, tinyJobs: 1,
			why:   "interpreter-bound: one local I-structure read per inner iteration and almost no messages, so worker.step and istructure cost show here; the bypass for stealing and for the cache",
			specs: []jobSpec{kernelSpec("relax", pick(96, 12), cluster.Config{})},
		},
		{
			name: "triangular_steal", tailQ: 0.75, clients: 1, tinyJobs: 1,
			why:   "scheduler-bound: pure ALU, static split skewed 1:7, Steal on, so wall time is set by steal/forward behaviour and PE imbalance",
			specs: []jobSpec{kernelSpec("triangular", pick(256, 12), cluster.Config{Steal: true})},
		},
		{
			name: "simple_chan", tailQ: 0.75, clients: 1, tinyJobs: 1,
			why:   "the paper's SIMPLE at n=128 on the chan transport: fine-grain tokens, spawns and page traffic with an unbounded cache; the bypass for the codec",
			specs: []jobSpec{simpleSpec(pick(128, 12))},
		},
		{
			name: "simple_tcp", tailQ: 0.75, clients: 1, tinyJobs: 1, tcp: true,
			why:   "the same program and size over two loopback TCP workers: the only workload that pays codec and socket cost",
			specs: []jobSpec{simpleSpec(pick(128, 12))},
		},
		{
			name: "matmul_evict", tailQ: 0.75, clients: 1, tinyJobs: 1,
			why:   "working set far beyond a 4-page bounded cache with the heat table on: evict/refetch/prefetch/page-ship churn, one message per ~13 instructions",
			specs: []jobSpec{kernelSpec("matmul", pick(64, 12), cluster.Config{CachePages: 4, Heat: true})},
		},
		{
			name: "serve_mix", tailQ: 0.90, clients: mixClients, tinyJobs: 40, maxJobs: mixClients + 1,
			why:   "control-plane-bound closed loop: 2 clients stream small mixed jobs (every knob) on one fleet, so job start/end, probe rounds and gather dominate",
			specs: mix, order: mixOrder(len(mix)),
		},
		{
			name: "simple_sim", tailQ: 0.75, clients: 1, tinyJobs: 1, sim: true,
			why:   "SIMPLE n=64 on the simulator at 32 virtual PEs, the Figure 10 configuration: guards the simulator's host speed and the virtual speed-up",
			specs: []jobSpec{simpleSpec(pick(64, 12))},
		},
	}
}

// traceKnobs switches the runtime's own recorder on for a traced job. The
// ring is small enough that busy workloads overflow it, so trace.drops is
// reported rather than hidden by an oversized ring.
func traceKnobs(cfg cluster.Config) cluster.Config {
	cfg.Trace, cfg.TraceCap, cfg.TraceSample = true, 1<<14, 4
	return cfg
}

// minJobs is the fewest jobs a timed phase runs however short --seconds is,
// so a median exists.
const minJobs = 5

// setupRepeats is how many cold set-ups a run times; setup_s is their median.
const setupRepeats = 21
