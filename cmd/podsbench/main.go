// Command podsbench regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index):
//
//	T1  — §5.1 iPSC/2 instruction-time table vs the simulator's cost model
//	T2  — §5.1 Array-Manager task times and message costs
//	F8  — Figure 8: functional-unit utilization balance (16×16 SIMPLE)
//	F9  — Figure 9: EU utilization per problem size
//	F10 — Figure 10: SIMPLE speed-up incl. the P&R control-driven baseline
//	E1  — §5.3.4 efficiency comparison (conduction 32×32, 1 PE)
//	X1  — generic matrix-multiply example
//	ABL — ablations (distribution off, cache off, control-driven)
//	PAGE — page-size sensitivity sweep ([BIC89] "not a critical parameter")
//
// Every number here is the simulator's virtual time or an instruction
// count; wall-clock performance is judged by benchmark/ (BENCHMARK.json).
//
// Usage:
//
//	podsbench                  # everything, paper-scale axes
//	podsbench -exp F10         # a single experiment
//	podsbench -quick           # reduced axes for smoke runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "podsbench:", err)
		os.Exit(1)
	}
}

// axes are the problem sizes and PE counts the experiments sweep.
type axes struct {
	pes, sizes        []int
	e1n, ablN, ablPEs int
}

var (
	paperAxes = axes{bench.DefaultPECounts, bench.DefaultSizes, 32, 32, 16}
	quickAxes = axes{[]int{1, 4, 16}, []int{8, 16}, 16, 16, 8}
)

// result is a rendered table or figure; the figures also write CSV.
type result interface{ Format() string }

type csvResult interface {
	WriteCSV(io.Writer) error
}

// text is a table that needs no run.
type text string

func (t text) Format() string { return string(t) }

func wrap[R result](r R, err error) (result, error) { return r, err }

// experiments are the ids -exp accepts besides "all", in run order; csv
// names the file a figure writes under -csv.
var experiments = []struct {
	id, csv string
	run     func(axes) (result, error)
}{
	{"T1", "", func(axes) (result, error) { return text(bench.TableT1()), nil }},
	{"T2", "", func(axes) (result, error) { return text(bench.TableT2()), nil }},
	{"F8", "figure8.csv", func(a axes) (result, error) { return wrap(bench.Figure8(16, a.pes)) }},
	{"F9", "figure9.csv", func(a axes) (result, error) { return wrap(bench.Figure9(a.sizes, a.pes)) }},
	{"F10", "figure10.csv", func(a axes) (result, error) { return wrap(bench.Figure10(a.sizes, a.pes)) }},
	{"E1", "", func(a axes) (result, error) { return wrap(bench.EfficiencyE1(a.e1n)) }},
	{"X1", "", func(a axes) (result, error) { return wrap(bench.MatmulX1(32, a.pes)) }},
	{"ABL", "", func(a axes) (result, error) { return wrap(bench.Ablations(a.ablN, a.ablPEs)) }},
	{"PAGE", "", func(a axes) (result, error) {
		return wrap(bench.PageSweep(a.ablN, a.ablPEs, []int{8, 16, 32, 64, 128}))
	}},
}

func run(argv []string, out io.Writer) error {
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	fs := flag.NewFlagSet("podsbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id ("+strings.Join(ids, ",")+") or 'all'")
	quick := fs.Bool("quick", false, "reduced axes (smaller sizes, fewer PE counts)")
	csvDir := fs.String("csv", "", "also write figure data as CSV files into this directory")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	a := paperAxes
	if *quick {
		a = quickAxes
	}

	want := map[string]bool{}
	for _, e := range strings.Split(strings.ToUpper(*exp), ",") {
		e = strings.TrimSpace(e)
		if e != "ALL" && !slices.Contains(ids, e) {
			return fmt.Errorf("unknown experiment %q (valid: %s, or all)", e, strings.Join(ids, ","))
		}
		want[e] = true
	}
	hr := strings.Repeat("=", 78)

	start := time.Now()
	for _, e := range experiments {
		if !want["ALL"] && !want[e.id] {
			continue
		}
		fmt.Fprintln(out, hr)
		r, err := e.run(a)
		if err != nil {
			return err
		}
		fmt.Fprint(out, r.Format())
		if e.csv != "" && *csvDir != "" {
			if err := emitCSV(out, filepath.Join(*csvDir, e.csv), r.(csvResult)); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(out, hr)
	fmt.Fprintf(out, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// emitCSV writes one figure's data to path and notes it on out.
func emitCSV(out io.Writer, path string, r csvResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.WriteCSV(f); err != nil {
		return err
	}
	fmt.Fprintf(out, "(wrote %s)\n", path)
	return nil
}
