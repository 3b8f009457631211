// Command podsc is the PODS compiler driver: it compiles an Idlite source
// file through the frontend, Translator and Partitioner and prints the
// partitioning report and (optionally) the Subcompact Process disassembly.
//
// Usage:
//
//	podsc [-no-dist] [-listing] prog.id
//	podsc -builtin simple -listing
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/partition"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "podsc:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("podsc", flag.ContinueOnError)
	noDist := fs.Bool("no-dist", false, "disable loop distribution (ablation)")
	listing := fs.Bool("listing", false, "print the SP disassembly")
	builtin := fs.String("builtin", "", "compile a built-in program: "+strings.Join(kernels.BuiltinNames(), " | "))
	out := fs.String("o", "", "write the compiled program to a .pods file")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	var name, src string
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
		src = string(data)
	default:
		return fmt.Errorf("usage: podsc [-no-dist] [-listing] prog.id")
	}

	prog, rep, err := core.Compile(name, src, partition.Options{DisableDistribution: *noDist})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d SP templates\n\n", name, len(prog.Templates))
	fmt.Print(rep.String())
	if *listing {
		fmt.Println()
		fmt.Print(prog.Listing())
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := isa.WritePods(f, prog); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
	return nil
}
