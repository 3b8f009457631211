// Package core wires the PODS pipeline of the paper's Figure 3 into one
// object: Idlite source (standing in for Id Nouveau) is compiled to
// dataflow graphs, the Translator turns code blocks into Subcompact
// Processes, the Partitioner inserts the distribution primitives
// (distributing allocate, LD, Range Filters), and the result can be run on
// either backend: the instruction-level machine simulator or the
// message-passing cluster runtime.
package core

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/idlang"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/translate"
)

// Options configures compilation.
type Options struct {
	// DisableDistribution skips the partitioner's loop distribution.
	DisableDistribution bool
}

// System is a compiled, partitioned PODS program ready to run.
type System struct {
	Graph   *graph.Program
	Program *isa.Program
	Report  *partition.Report
}

// CompileSource builds a System from Idlite source text.
func CompileSource(filename, src string, opts Options) (*System, error) {
	gp, err := idlang.Compile(filename, src)
	if err != nil {
		return nil, err
	}
	return CompileGraph(gp, opts)
}

// CompileGraph builds a System from an already-constructed dataflow graph
// (e.g. one assembled with graph.Builder).
func CompileGraph(gp *graph.Program, opts Options) (*System, error) {
	prog, err := translate.Translate(gp)
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	rep, err := partition.Partition(prog, partition.Options{DisableDistribution: opts.DisableDistribution})
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	return &System{Graph: gp, Program: prog, Report: rep}, nil
}

// Listing returns the SP disassembly of the partitioned program.
func (s *System) Listing() string { return s.Program.Listing() }

// Simulate runs the program on the discrete-event machine simulator.
func (s *System) Simulate(cfg sim.Config, args ...isa.Value) (*sim.Result, *sim.Machine, error) {
	m, err := sim.New(s.Program, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Run(args...)
	if err != nil {
		return nil, nil, err
	}
	return res, m, nil
}

// ExecuteCluster runs the program on the message-passing distributed-memory
// runtime (in-process channel workers, or TCP workers when cfg.Workers is
// set).
func (s *System) ExecuteCluster(ctx context.Context, cfg cluster.Config, args ...isa.Value) (*cluster.Result, error) {
	return cluster.Execute(ctx, s.Program, cfg, args...)
}
