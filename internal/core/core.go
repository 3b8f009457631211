// Package core is the PODS compile pipeline of the paper's Figure 3:
// Idlite source (standing in for Id Nouveau) is compiled to dataflow
// graphs, the Translator turns code blocks into Subcompact Processes, and
// the Partitioner inserts the distribution primitives (distributing
// allocate, LD, Range Filters). Every front end compiles through here; the
// result runs on either backend (sim.New or cluster.Execute).
package core

import (
	"repro/internal/graph"
	"repro/internal/idlang"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/translate"
)

// Compile takes Idlite source text to a partitioned program.
func Compile(filename, src string, opts partition.Options) (*isa.Program, *partition.Report, error) {
	gp, err := idlang.Compile(filename, src)
	if err != nil {
		return nil, nil, err
	}
	return CompileGraph(gp, opts)
}

// CompileGraph takes an already-constructed dataflow graph (e.g. one
// assembled with graph.Builder) to a partitioned program. A stage's error
// comes back as the stage returned it (each names its stage).
func CompileGraph(gp *graph.Program, opts partition.Options) (*isa.Program, *partition.Report, error) {
	prog, err := translate.Translate(gp)
	if err != nil {
		return nil, nil, err
	}
	rep, err := partition.Partition(prog, opts)
	if err != nil {
		return nil, nil, err
	}
	return prog, rep, nil
}
