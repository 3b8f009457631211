// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§5): the §5.1 timing tables (T1, T2),
// Figure 8 (functional-unit balance), Figure 9 (EU utilization), Figure 10
// (SIMPLE speed-up incl. the Pingali & Rogers baseline), the §5.3.4
// efficiency comparison (E1), the matrix-multiply generic example (X1), and
// the ablations called out in DESIGN.md.
package bench

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/simple"
)

// Variant selects an execution model for a run.
type Variant uint8

// Execution variants.
const (
	VariantPODS    Variant = iota + 1 // full PODS: data-driven SPs, split-phase, caching
	VariantPR                         // Pingali&Rogers-style: control-driven, EU stalls on absent operands
	VariantSeq                        // ideal sequential: 1 PE, zero PODS overheads (§5.3.4 baseline)
	VariantNoDist                     // ablation: partitioner distribution disabled
	VariantNoCache                    // ablation: software page cache disabled
)

func (v Variant) String() string {
	switch v {
	case VariantPODS:
		return "PODS"
	case VariantPR:
		return "P&R"
	case VariantSeq:
		return "seq"
	case VariantNoDist:
		return "nodist"
	case VariantNoCache:
		return "nocache"
	default:
		return "?"
	}
}

// compiled caches translated programs per (source, distribution) pair.
var compiled struct {
	mu    sync.Mutex
	progs map[string]*isa.Program
}

// Compile compiles Idlite source with core.Compile, once per (source,
// distribution) pair. Distribution can be disabled for the NoDist ablation.
func Compile(name, src string, distribute bool) (*isa.Program, error) {
	compiled.mu.Lock()
	defer compiled.mu.Unlock()
	key := fmt.Sprintf("%s/dist=%v", name, distribute)
	if compiled.progs == nil {
		compiled.progs = make(map[string]*isa.Program)
	}
	if p, ok := compiled.progs[key]; ok {
		return p, nil
	}
	prog, _, err := core.Compile(name, src, partition.Options{DisableDistribution: !distribute})
	if err != nil {
		return nil, err
	}
	compiled.progs[key] = prog
	return prog, nil
}

// Run simulates the program with the given mesh size under a variant.
func Run(src, name string, n, pes int, v Variant) (*sim.Result, error) {
	cfg := sim.Config{NumPEs: pes}
	distribute := true
	switch v {
	case VariantPR:
		cfg.Stall = true
	case VariantSeq:
		cfg.NumPEs = 1
		cfg.ZeroOverhead = true
		distribute = false // sequential code has no Range Filters
	case VariantNoDist:
		distribute = false
	case VariantNoCache:
		cfg.DisableCache = true
	}
	prog, err := Compile(name, src, distribute)
	if err != nil {
		return nil, err
	}
	m, err := sim.New(prog, cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(isa.Int(int64(n)))
}

// RunSimple simulates the full SIMPLE step.
func RunSimple(n, pes int, v Variant) (*sim.Result, error) {
	return Run(simple.Source, "simple.id", n, pes, v)
}

// RunConduction simulates the standalone conduction routine (§5.3.4).
func RunConduction(n, pes int, v Variant) (*sim.Result, error) {
	return Run(simple.ConductionSource, "conduction.id", n, pes, v)
}

// DefaultPECounts is the paper's PE axis.
var DefaultPECounts = []int{1, 2, 4, 8, 16, 32}

// DefaultSizes is the paper's problem-size axis.
var DefaultSizes = []int{16, 32, 64}

// PaperSpeedup32 records the paper's Figure 10 speed-ups at 32 PEs.
var PaperSpeedup32 = map[int]float64{16: 8.1, 32: 12.4, 64: 18.9}

// PaperEfficiencyRatio is §5.3.4's PODS-vs-sequential ratio (1.72s/0.9s).
const PaperEfficiencyRatio = 1.72 / 0.9
