// Command podsim compiles an Idlite program and runs it on the simulated
// PODS multiprocessor, printing virtual execution time, per-unit
// utilizations and dynamic counts.
//
// Usage:
//
//	podsim -pes 8 -args 32 prog.id
//	podsim -builtin simple -pes 32 -args 64
//	podsim -builtin matmul -pes 8 -args 24 -dump C
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "podsim:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("podsim", flag.ContinueOnError)
	pes := fs.Int("pes", 4, "number of processing elements")
	argsFlag := fs.String("args", "", "comma-separated integer arguments for main")
	builtin := fs.String("builtin", "", "run a built-in program: "+strings.Join(kernels.BuiltinNames(), " | "))
	noDist := fs.Bool("no-dist", false, "disable loop distribution (ablation)")
	stall := fs.Bool("stall", false, "control-driven baseline (no remote-latency hiding)")
	noCache := fs.Bool("no-cache", false, "disable the software page cache (ablation)")
	dump := fs.String("dump", "", "print the named array after the run")
	pageElems := fs.Int("page", 0, "I-structure page size in elements (default 32)")
	trace := fs.Bool("trace", false, "print SP lifecycle events (spawn/block/unblock/halt) to stderr")
	perPE := fs.Bool("perpe", false, "print the per-PE utilization table (load balance)")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	var name, src string
	var precompiled *isa.Program
	switch {
	case *builtin != "":
		var ok bool
		if name, src, ok = kernels.Builtin(*builtin); !ok {
			return fmt.Errorf("unknown builtin %q", *builtin)
		}
	case fs.NArg() == 1:
		name = fs.Arg(0)
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		if strings.HasSuffix(name, ".pods") {
			precompiled, err = isa.UnmarshalPods(data)
			if err != nil {
				return err
			}
		} else {
			src = string(data)
		}
	default:
		return fmt.Errorf("usage: podsim [flags] prog.id|prog.pods (or -builtin NAME)")
	}

	var args []isa.Value
	if *argsFlag != "" {
		for _, part := range strings.Split(*argsFlag, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return fmt.Errorf("bad argument %q: %w", part, err)
			}
			args = append(args, isa.Int(v))
		}
	}

	prog := precompiled
	if prog == nil {
		var err error
		if prog, _, err = core.Compile(name, src, partition.Options{DisableDistribution: *noDist}); err != nil {
			return err
		}
	}
	cfg := sim.Config{
		NumPEs: *pes, Stall: *stall, DisableCache: *noCache, PageElems: *pageElems,
	}
	if *trace {
		cfg.Trace = os.Stderr
	}
	m, err := sim.New(prog, cfg)
	if err != nil {
		return err
	}
	res, err := m.Run(args...)
	if err != nil {
		return err
	}

	fmt.Printf("%s on %d PEs: %s\n", name, *pes, res)
	if res.MainValue != nil {
		fmt.Printf("result: %+v\n", *res.MainValue)
	}
	if *perPE {
		fmt.Printf("\nper-PE utilization (EU imbalance %.2fx):\n%s", res.LoadImbalance(), res.PerPE())
	}
	fmt.Printf("arrays: %s\n", strings.Join(m.ArrayNames(), ", "))
	if *dump != "" {
		vals, mask, dims, err := m.ReadArray(*dump)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s %v:\n", *dump, dims)
		cols := dims[len(dims)-1]
		for i, v := range vals {
			if i > 0 && i%cols == 0 {
				fmt.Println()
			}
			if mask[i] {
				fmt.Printf("%10.4f", v)
			} else {
				fmt.Printf("%10s", "·")
			}
		}
		fmt.Println()
	}
	return nil
}
