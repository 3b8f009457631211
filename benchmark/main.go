// Command benchmark is the PODS performance benchmark: seven named
// workloads, each reporting the end-to-end metrics a user sees and, in a
// separate traced pass, the per-layer metrics of this repo's packages.
// BENCHMARK.json at the repo root names the workloads and metrics;
// README.md in this directory says why each exists and how they interact.
//
//	go run ./benchmark -workload relax_chan -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -workload all -trace 1 -out /tmp/pods-trace
//	go run ./benchmark -compare a/results.jsonl b/results.jsonl
//
// The last line on standard output is the run's result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	code, err := mainErr(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func mainErr(argv []string) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or 'all'")
	seed := fs.Int64("seed", 1, "seed for serve_mix's job stream and the micro-op sequences")
	secs := fs.Float64("seconds", 10, "length of the timed phase")
	traceOn := fs.Int("trace", 0, "1 = the traced pass (per-layer metrics, spans file); 0 = end-to-end metrics")
	out := fs.String("out", "", "directory for results.jsonl and the spans files (default: write nothing)")
	compare := fs.Bool("compare", false, "compare two results.jsonl files given as arguments; exit 1 on a regression")
	if err := fs.Parse(argv); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare takes two results.jsonl files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *secs <= 0 || (*traceOn != 0 && *traceOn != 1) {
		return 2, fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}

	var chosen []workload
	for _, w := range workloads(false) {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	o := options{seed: *seed, seconds: *secs, trace: *traceOn == 1}
	for i := range chosen {
		rec, err := measure(context.Background(), &chosen[i], o)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", chosen[i].name, err)
		}
		if *out != "" {
			if err := rec.save(*out); err != nil {
				return 1, err
			}
		}
		rec.print(os.Stdout)
	}
	return 0, nil
}

// reported are the metrics the pass owes BENCHMARK.json.
func (rec *record) reported() []metricDef {
	if rec.Trace == 1 {
		return perLayer
	}
	return endToEnd
}

// print writes every measured metric by name with its unit, then the result
// line: one JSON object, last on standard output.
func (rec *record) print(w io.Writer) {
	h := rec.Host
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  seconds %g  closed loop, %d PEs\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Seconds, numPEs)
	fmt.Fprintf(w, "host nproc=%d GOMAXPROCS=%d %s git=%s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.GitSHA)
	fmt.Fprintf(w, "ops attempted %d  failed %d  fail_ratio %g\n", rec.Attempted, rec.Failed, ratio(float64(rec.Failed), float64(rec.Attempted)))
	fmt.Fprintf(w, "wall_s quartiles %.6g / %.6g over %d jobs\n", rec.wallQuartiles[0], rec.wallQuartiles[1], rec.Attempted-rec.Failed)
	unit := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		unit[d.Name] = d.Unit
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, rec.Metrics[n], unit[n])
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, make(map[string]value)}
	for _, d := range rec.reported() {
		line.Metrics[d.Name] = value{rec.Metrics[d.Name], d.Unit}
	}
	data, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", data)
}

// save appends the record to <dir>/results.jsonl and, in the traced pass,
// writes the spans as Chrome trace JSON beside it.
func (rec *record) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if rec.spans != nil {
		return rec.spans.writeChrome(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", rec.Workload, rec.Seed)))
	}
	return nil
}

// readRecords loads a results.jsonl file.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// compareFiles prints, for each workload and end-to-end metric, both sets'
// medians, their ratio, the bound and a verdict. A metric is unresolved
// when the run-to-run spread is wider than its bound, regressed when the
// second median is worse than the first by more than the bound.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return 2, err
	}
	// values of one metric over a set's untraced runs of one workload, and
	// the spread to judge them by: between runs when the set has several,
	// else the one run's own spread between jobs.
	collect := func(recs []record, workload, metric string) (vals []float64, spread float64) {
		for _, r := range recs {
			if r.Workload == workload && r.Trace == 0 {
				vals = append(vals, r.Metrics[metric])
				spread = r.Metrics["bench.spread_iqr_ratio"]
			}
		}
		if len(vals) > 1 {
			spread = iqrRatio(vals)
		}
		return vals, spread
	}
	regressed := false
	fmt.Fprintf(w, "%-18s %-18s %12s %12s %8s %6s %8s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "spread", "verdict")
	for _, wl := range workloads(false) {
		for _, d := range endToEnd {
			va, sa := collect(a, wl.name, d.Name)
			vb, sb := collect(b, wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.Better == higher {
				worse = -worse
			}
			spread := max(sa, sb)
			verdict := "ok"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-18s %12.6g %12.6g %8.4f %6.2f %8.4f  %s\n",
				wl.name, d.Name, ma, mb, ratio(mb, ma), d.Bound, spread, verdict)
		}
	}
	if regressed {
		return 1, nil
	}
	return 0, nil
}
