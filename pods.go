// Package pods is a reproduction of PODS — the Process-Oriented Dataflow
// System of Bic, Roy & Nagel, "Exploiting Iteration-Level Parallelism in
// Dataflow Programs" (UC Irvine TR 91-57 / ICDCS 1992).
//
// PODS executes single-assignment (Id Nouveau-style) programs on a
// conventional distributed-memory multiprocessor by grouping dataflow
// instructions into sequential light-weight Subcompact Processes (SPs) and
// distributing loop iterations to follow the data: arrays are paged and
// spread over the PEs, distributed loops are spawned on every PE with the
// distributing L operator, and a Range Filter clamps each copy's index
// range to its PE's area of responsibility.
//
// The package front door:
//
//	p, err := pods.Compile("prog.id", src)         // Idlite → partitioned SPs
//	res, err := p.Simulate(pods.SimConfig{NumPEs: 32}, pods.Int(64))
//	fmt.Println(res)                                // virtual time + unit stats
//	vals, _, dims, err := res.Array("A")            // I-structure contents
//
// Simulate runs the instruction-level machine simulator parameterized with
// the paper's measured iPSC/2 timings; ExecuteCluster runs the same program
// for real on a message-passing distributed-memory runtime whose PEs share
// nothing and can even be separate OS processes (see cmd/podsd). The two
// backends produce the same arrays at every PE count. See DESIGN.md for the
// system inventory, the backend matrix, and the experiment index.
package pods

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/cluster/trace"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Value is a dataflow token value (program argument or result).
type Value = isa.Value

// Int builds an integer argument.
func Int(v int64) Value { return isa.Int(v) }

// Float builds a floating-point argument.
func Float(v float64) Value { return isa.Float(v) }

// SimConfig parameterizes the machine simulator. See sim.Config for the
// full documentation of every knob.
type SimConfig = sim.Config

// ClusterConfig parameterizes the message-passing cluster runtime.
type ClusterConfig = cluster.Config

// GraphBuilder constructs dataflow programs directly (the API the Idlite
// frontend itself uses).
type GraphBuilder = graph.Builder

// NewGraphBuilder returns an empty dataflow-program builder.
func NewGraphBuilder() *graph.Builder { return graph.NewBuilder() }

// Program is a compiled and partitioned PODS program.
type Program struct {
	prog *isa.Program
	rep  *partition.Report
}

func newProgram(prog *isa.Program, rep *partition.Report, err error) (*Program, error) {
	if err != nil {
		return nil, err
	}
	return &Program{prog: prog, rep: rep}, nil
}

// Compile compiles Idlite source through the full PODS pipeline
// (frontend → dataflow graph → Translator → Partitioner).
func Compile(filename, src string) (*Program, error) {
	return newProgram(core.Compile(filename, src, partition.Options{}))
}

// CompileCentralized compiles without loop distribution (every SP runs on
// the spawning PE) — useful for ablation studies.
func CompileCentralized(filename, src string) (*Program, error) {
	return newProgram(core.Compile(filename, src, partition.Options{DisableDistribution: true}))
}

// FromGraph compiles a builder-constructed dataflow program.
func FromGraph(b *graph.Builder) (*Program, error) {
	gp, err := b.Program()
	if err != nil {
		return nil, err
	}
	return newProgram(core.CompileGraph(gp, partition.Options{}))
}

// Listing disassembles the partitioned Subcompact Processes.
func (p *Program) Listing() string { return p.prog.Listing() }

// PartitionReport describes the partitioner's distribution decisions.
func (p *Program) PartitionReport() string { return p.rep.String() }

// SimResult is a completed simulation plus access to the machine's final
// I-structure memory.
type SimResult struct {
	*sim.Result
	machine *sim.Machine
}

// Array gathers a named array written by the program: values, a
// written-mask, and the array dimensions.
func (r *SimResult) Array(name string) (vals []float64, mask []bool, dims []int, err error) {
	return r.machine.ReadArray(name)
}

// Arrays lists the names of all arrays the program allocated.
func (r *SimResult) Arrays() []string { return r.machine.ArrayNames() }

// Simulate runs the program on the simulated PODS multiprocessor.
func (p *Program) Simulate(cfg SimConfig, args ...Value) (*SimResult, error) {
	m, err := sim.New(p.prog, cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.Run(args...)
	if err != nil {
		return nil, err
	}
	return &SimResult{Result: res, machine: m}, nil
}

// ClusterTrace is a cluster run's gathered observability data (per-PE
// event streams plus the per-probe-round metrics timeline).
type ClusterTrace = trace.Trace

// ClusterPEStat is one worker's counter breakdown from a cluster run.
type ClusterPEStat = cluster.PEStat

// ClusterResult is a completed distributed-memory (message-passing) run.
type ClusterResult struct {
	// Value is the program's returned value (nil for void main).
	Value *Value
	res   *cluster.Result

	// tmplName labels SP templates in trace exports.
	tmplName func(tmpl int64) string
}

// Array gathers a named array written by the program.
func (r *ClusterResult) Array(name string) (vals []float64, mask []bool, dims []int, err error) {
	return r.res.ReadArray(name)
}

// Arrays lists the names of all arrays the program allocated.
func (r *ClusterResult) Arrays() []string { return r.res.ArrayNames() }

// Stats reports cluster-wide dynamic counts (messages, deferred reads,
// page-cache traffic, steals).
func (r *ClusterResult) Stats() cluster.Stats { return r.res.Stats }

// PEInstrs reports each worker's executed-instruction count — the per-PE
// load distribution, e.g. for judging how well work stealing rebalanced a
// skewed kernel.
func (r *ClusterResult) PEInstrs() []int64 { return append([]int64(nil), r.res.PEInstrs...) }

// PEStats reports each worker's full counter breakdown — the per-PE
// decomposition of Stats, so balance and locality claims are checkable per
// worker rather than only as cluster-wide sums.
func (r *ClusterResult) PEStats() []ClusterPEStat {
	return append([]ClusterPEStat(nil), r.res.PEStats...)
}

// Trace returns the run's observability data, or nil when the run was not
// traced (ClusterConfig.Trace unset).
func (r *ClusterResult) Trace() *ClusterTrace { return r.res.Trace }

// WriteChromeTrace renders the run's trace in the Chrome trace_event JSON
// array format — load the file at https://ui.perfetto.dev (or
// chrome://tracing) to browse per-PE SP execution slices, steal and page
// traffic, and utilization counter tracks.
func (r *ClusterResult) WriteChromeTrace(w io.Writer) error {
	if r.res.Trace == nil {
		return fmt.Errorf("pods: run was not traced (set ClusterConfig.Trace)")
	}
	return trace.WriteChrome(w, r.res.Trace, r.tmplName)
}

// WriteTimelineCSV renders the run's per-probe-round metrics timeline as
// CSV (one row per round per PE).
func (r *ClusterResult) WriteTimelineCSV(w io.Writer) error {
	if r.res.Trace == nil || r.res.Trace.Timeline == nil {
		return fmt.Errorf("pods: run was not traced (set ClusterConfig.Trace)")
	}
	return trace.WriteTimelineCSV(w, r.res.Trace.Timeline)
}

// ExecuteCluster runs the program on the message-passing distributed-memory
// runtime: cfg.NumPEs share-nothing workers over an in-process channel
// transport, or — when cfg.Workers lists addresses — TCP workers running as
// separate processes (`podsd -worker`). The context bounds the run; a
// deadlocked dataflow program is reported when it expires.
func (p *Program) ExecuteCluster(ctx context.Context, cfg ClusterConfig, args ...Value) (*ClusterResult, error) {
	res, err := cluster.Execute(ctx, p.prog, cfg, args...)
	if err != nil {
		return nil, err
	}
	return &ClusterResult{Value: res.Value, res: res, tmplName: p.prog.TemplateName}, nil
}

// ClusterFleet is a persistent message-passing cluster: the workers come
// up once and stay up across any number of jobs, submitted concurrently
// from any goroutine. Each job gets its own isolated worker instances
// (I-structure shards, run queues, page caches, trace rings) keyed by a
// job ID, so concurrent jobs cannot observe each other. ExecuteCluster is
// the one-shot special case: open, submit one job, close.
type ClusterFleet struct {
	f *cluster.Fleet
}

// OpenClusterFleet brings a persistent fleet up. cfg fixes the transport
// (in-process channel workers, or TCP when cfg.Workers lists addresses),
// the PE count, and the concurrent-job cap (cfg.MaxJobs); scheduling
// knobs and budgets are chosen per job at Submit time.
func OpenClusterFleet(ctx context.Context, cfg ClusterConfig) (*ClusterFleet, error) {
	f, err := cluster.OpenFleet(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &ClusterFleet{f: f}, nil
}

// Submit runs one program on the fleet and waits for its result. Safe for
// concurrent use; each call is an isolated job. cfg supplies the job's
// scheduling knobs, geometry, and budgets (ClusterConfig.MaxInstrs,
// MaxElems) — transport fields come from the fleet.
func (f *ClusterFleet) Submit(ctx context.Context, p *Program, cfg ClusterConfig, args ...Value) (*ClusterResult, error) {
	res, err := f.f.Submit(ctx, p.prog, cfg, args...)
	if err != nil {
		return nil, err
	}
	return &ClusterResult{Value: res.Value, res: res, tmplName: p.prog.TemplateName}, nil
}

// Close shuts the fleet down. Jobs still in flight fail; Close is
// idempotent.
func (f *ClusterFleet) Close() error { return f.f.Close() }

// MustCompile is Compile that panics on error (for examples and tests).
func MustCompile(filename, src string) *Program {
	p, err := Compile(filename, src)
	if err != nil {
		panic(fmt.Sprintf("pods: %v", err))
	}
	return p
}
