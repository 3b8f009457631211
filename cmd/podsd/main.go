// Command podsd runs PODS programs on the message-passing cluster runtime.
// It is both halves of a distributed deployment:
//
// Worker mode serves one PE as its own OS process. The worker is program-
// agnostic — the driver ships it the compiled program, the cluster geometry
// and the peer list in its init message, so the same worker binary serves
// any program:
//
//	podsd -worker -listen 127.0.0.1:7101
//
// Driver mode compiles an Idlite program (or loads a .pods file) and runs
// it — over TCP workers when -workers is given, or on in-process channel-
// transport workers otherwise:
//
//	podsd -pes 4 -args 16 prog.id                                # in-process
//	podsd -workers 127.0.0.1:7101,127.0.0.1:7102 -args 16 prog.id  # TCP
//	podsd -builtin matmul -pes 8 -args 12 -dump C
//
// Every job survives a worker death: the dead PE is re-homed (onto the
// next -spares address, over TCP) and the job runs again from its program
// and arguments — PODS programs are determinate, so the results are
// bit-identical to an undisturbed run, stealing or not:
//
//	podsd -workers w1:7101,w2:7101 -spares w3:7101 -builtin relax -args 16,8
//
// Observability: -metrics serves live counters while a run is in flight
// (plain-text /metrics, expvar /debug/vars, and /debug/pprof) in either
// mode; -trace / -timeline make a driver run record every PE's event ring
// and export it as Chrome trace_event JSON (open at https://ui.perfetto.dev)
// and a per-probe-round CSV:
//
//	podsd -worker -listen 0.0.0.0:7101 -metrics 0.0.0.0:7070
//	podsd -builtin relax -pes 8 -steal -trace relax.json -timeline relax.csv
//
// Job-server mode keeps the fleet up across programs: -serve opens a
// persistent fleet (in-process or over TCP workers) and accepts compiled
// programs over the framed protocol — any number of jobs run concurrently
// on the same workers, each isolated under its own job ID, admitted under
// -max-jobs and per-job -max-instrs / -max-elems budget caps. With
// -metrics the same fleet also accepts HTTP submissions: POST a .pods
// program body to /jobs. -submit is the matching client: it compiles (or
// loads) a program, ships it to a server, and prints the streamed result
// and arrays exactly like a local run:
//
//	podsd -serve 0.0.0.0:7200 -pes 8 -max-jobs 16 -metrics 0.0.0.0:7070
//	podsd -submit host:7200 -builtin matmul -args 12 -dump C
//	curl --data-binary @prog.pods 'http://host:7070/jobs?args=16'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -metrics server
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/trace"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "podsd:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("podsd", flag.ContinueOnError)
	worker := fs.Bool("worker", false, "run as a TCP worker PE (persistent: serves driver sessions until killed)")
	listen := fs.String("listen", "127.0.0.1:0", "worker/server listen address")
	serveAddr := fs.String("serve", "", "run as a job server: keep a fleet up on this address and accept submitted programs")
	submitAddr := fs.String("submit", "", "submit the program to a job server at this address instead of running locally")
	maxJobs := fs.Int("max-jobs", 0, "cap concurrently admitted jobs in -serve mode (default 16)")
	maxInstrs := fs.Int64("max-instrs", 0, "per-job executed-instruction budget cap (0 = unlimited); -serve caps clients, driver/-submit sets the job's own budget")
	maxElems := fs.Int64("max-elems", 0, "per-job allocated-element budget cap (0 = unlimited); -serve caps clients, driver/-submit sets the job's own budget")
	workers := fs.String("workers", "", "comma-separated worker addresses (driver mode; empty = in-process)")
	spares := fs.String("spares", "", "comma-separated standby worker addresses a dead TCP worker's PE is re-homed onto before the job runs again, one per death")
	pes := fs.Int("pes", 0, "number of in-process worker PEs (default 4)")
	argsFlag := fs.String("args", "", "comma-separated integer arguments for main")
	builtin := fs.String("builtin", "", "run a built-in kernel: matmul | heat | pipeline | mirror | triangular | triread | relax")
	dump := fs.String("dump", "", "print the named array after the run")
	pageElems := fs.Int("page", 0, "I-structure page size in elements (default 32)")
	cachePages := fs.Int("cache", 0, "cap each PE's remote page cache at this many pages, CLOCK-evicted (0 = unbounded)")
	steal := fs.Bool("steal", false, "enable dynamic work stealing between PEs")
	adapt := fs.Bool("adapt", false, "enable adaptive repartitioning of Range Filter bounds between sweeps")
	heat := fs.Bool("heat", false, "enable the page-heat machinery: streaming prefetch and the adaptive cache cap")
	latency := fs.Duration("latency", 0, "inject per-hop latency into the in-process transport")
	timeout := fs.Duration("timeout", 2*time.Minute, "abort a (possibly deadlocked) run after this long")
	metrics := fs.String("metrics", "", "serve live metrics on this address (/metrics, /debug/vars, /debug/pprof)")
	traceOut := fs.String("trace", "", "record a trace and write it as Chrome trace_event JSON to this file (driver mode)")
	timelineOut := fs.String("timeline", "", "record a trace and write the per-round metrics timeline CSV to this file (driver mode)")
	traceCap := fs.Int("trace-cap", 0, "per-PE trace ring capacity in events (default 4096)")
	traceSample := fs.Int("trace-sample", 0, "record every Nth SP instance's dispatch/complete events (default 1 = all)")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	if *metrics != "" {
		if err := serveMetrics(*metrics); err != nil {
			return err
		}
	}

	if *worker {
		return serveWorker(*listen)
	}

	if *serveAddr != "" {
		cfg := cluster.Config{NumPEs: *pes, Latency: *latency,
			MaxJobs: *maxJobs, MaxInstrs: *maxInstrs, MaxElems: *maxElems}
		if *workers != "" {
			cfg.Workers = strings.Split(*workers, ",")
		}
		if *spares != "" {
			cfg.Spares = strings.Split(*spares, ",")
		}
		return serveJobs(*serveAddr, cfg)
	}

	var name, src string
	var precompiled *isa.Program
	switch {
	case *builtin != "":
		k, ok := kernels.ByName(*builtin)
		if !ok {
			return fmt.Errorf("unknown builtin %q", *builtin)
		}
		name, src = k.File(), k.Source
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
		return fmt.Errorf("usage: podsd [flags] prog.id|prog.pods (or -builtin NAME, or -worker)")
	}

	args, err := parseArgs(*argsFlag)
	if err != nil {
		return err
	}

	prog := precompiled
	if prog == nil {
		sys, err := core.CompileSource(name, src, core.Options{})
		if err != nil {
			return err
		}
		prog = sys.Program
	}

	if *submitAddr != "" {
		cfg := cluster.Config{PageElems: *pageElems, CachePages: *cachePages,
			Steal: *steal, Adapt: *adapt, Heat: *heat,
			TraceCap: *traceCap, TraceSample: *traceSample,
			MaxInstrs: *maxInstrs, MaxElems: *maxElems}
		return submitJob(*submitAddr, name, prog, cfg, args, *dump, *timeout)
	}

	cfg := cluster.Config{NumPEs: *pes, PageElems: *pageElems, CachePages: *cachePages,
		Steal: *steal, Adapt: *adapt, Heat: *heat, Latency: *latency,
		TraceCap: *traceCap, TraceSample: *traceSample,
		MaxInstrs: *maxInstrs, MaxElems: *maxElems}
	cfg.Trace = *traceOut != "" || *timelineOut != ""
	if *workers != "" {
		cfg.Workers = strings.Split(*workers, ",")
	}
	if *spares != "" {
		cfg.Spares = strings.Split(*spares, ",")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	res, err := cluster.Execute(ctx, prog, cfg, args...)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	transport := "chan"
	if len(cfg.Workers) > 0 {
		transport = "tcp"
	}
	n := res.NumPEs
	st := res.Stats
	fmt.Printf("%s on %d PEs (%s): %.3f ms wall, %d msgs, %d deferred reads, %d/%d cache hits/misses, %d/%d evictions/refetches, %d/%d prefetches/hits, %d steals, %d forwards, %d rebounds, %d recoveries\n",
		name, n, transport, float64(wall.Microseconds())/1000, st.MsgsSent, st.DeferredReads, st.CacheHits, st.CacheMisses,
		st.Evictions, st.Refetches, st.Prefetches, st.PrefetchHits, st.Steals, st.Forwards, st.Rebounds, st.Recoveries)
	if res.Value != nil {
		fmt.Printf("result: %s\n", res.Value)
	}
	fmt.Printf("arrays: %s\n", strings.Join(res.ArrayNames(), ", "))
	if res.Trace != nil {
		if err := writeTraceFiles(res, prog, *traceOut, *timelineOut); err != nil {
			return err
		}
	}
	if *dump != "" {
		vals, mask, dims, err := res.ReadArray(*dump)
		if err != nil {
			return err
		}
		printDump(os.Stdout, *dump, dims, vals, mask)
	}
	return nil
}

// parseArgs turns the -args flag's comma-separated integers into main
// arguments.
func parseArgs(s string) ([]isa.Value, error) {
	if s == "" {
		return nil, nil
	}
	var args []isa.Value
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad argument %q: %w", part, err)
		}
		args = append(args, isa.Int(v))
	}
	return args, nil
}

// printDump renders one array in the canonical -dump format (row-major,
// 10-wide cells, '·' for never-written elements). The driver, the job
// client, and the HTTP endpoint all share it so their outputs diff clean.
func printDump(w io.Writer, name string, dims []int, vals []float64, mask []bool) {
	fmt.Fprintf(w, "\n%s %v:\n", name, dims)
	cols := 1
	if len(dims) > 0 && dims[len(dims)-1] > 0 {
		cols = dims[len(dims)-1]
	}
	for i, v := range vals {
		if i > 0 && i%cols == 0 {
			fmt.Fprintln(w)
		}
		if mask[i] {
			fmt.Fprintf(w, "%10.4f", v)
		} else {
			fmt.Fprintf(w, "%10s", "·")
		}
	}
	fmt.Fprintln(w)
}

// submitJob ships a compiled program to a job server and prints the
// streamed reply in the local-run layout.
func submitJob(addr, name string, prog *isa.Program, cfg cluster.Config, args []isa.Value, dump string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	reply, err := cluster.SubmitJob(ctx, addr, prog, cfg, args...)
	if err != nil {
		return err
	}
	fmt.Printf("%s on job server %s: %.3f ms wall\n",
		name, addr, float64(time.Since(start).Microseconds())/1000)
	if reply.Value != nil {
		fmt.Printf("result: %s\n", reply.Value)
	}
	names := make([]string, len(reply.Arrays))
	for i := range reply.Arrays {
		names[i] = reply.Arrays[i].Name
	}
	fmt.Printf("arrays: %s\n", strings.Join(names, ", "))
	if dump != "" {
		a, err := reply.Array(dump)
		if err != nil {
			return err
		}
		printDump(os.Stdout, dump, a.Dims, a.Vals, a.Mask)
	}
	return nil
}

// serveJobs opens a persistent fleet and serves submitted jobs on addr
// until the process is killed. With -metrics set, the fleet also accepts
// HTTP submissions on POST /jobs (body: a compiled .pods program; query:
// args=1,2 main arguments, dump=NAME to include an array in the reply).
func serveJobs(addr string, cfg cluster.Config) error {
	ctx := context.Background()
	fleet, err := cluster.OpenFleet(ctx, cfg)
	if err != nil {
		return err
	}
	defer fleet.Close()
	http.HandleFunc("/jobs", jobsHandler(fleet))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	transport := "chan"
	if len(cfg.Workers) > 0 {
		transport = "tcp"
	}
	fmt.Printf("podsd job server on %s (%s transport)\n", ln.Addr(), transport)
	return fleet.ServeJobs(ctx, ln)
}

// jobsHandler is the HTTP front door to a serving fleet.
func jobsHandler(fleet *cluster.Fleet) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a compiled .pods program", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		prog, err := isa.UnmarshalPods(body)
		if err != nil {
			http.Error(w, fmt.Sprintf("decoding program: %v", err), http.StatusBadRequest)
			return
		}
		args, err := parseArgs(r.URL.Query().Get("args"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := fleet.Submit(r.Context(), prog, cluster.Config{}, args...)
		if err != nil {
			code := http.StatusInternalServerError
			if strings.Contains(err.Error(), "rejected") {
				code = http.StatusTooManyRequests
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if res.Value != nil {
			fmt.Fprintf(w, "result: %s\n", res.Value)
		}
		fmt.Fprintf(w, "arrays: %s\n", strings.Join(res.ArrayNames(), ", "))
		if d := r.URL.Query().Get("dump"); d != "" {
			vals, mask, dims, err := res.ReadArray(d)
			if err != nil {
				fmt.Fprintf(w, "dump error: %v\n", err)
				return
			}
			printDump(w, d, dims, vals, mask)
		}
	}
}

// writeTraceFiles exports a traced run: Chrome trace_event JSON and/or the
// per-round timeline CSV, plus a one-line summary of what was captured.
func writeTraceFiles(res *cluster.Result, prog *isa.Program, traceOut, timelineOut string) error {
	tr := res.Trace
	fmt.Printf("trace: %d events over %d PEs (%d dropped), %d timeline samples\n",
		tr.Events(), tr.NumPEs, tr.Drops(), len(tr.Timeline.Samples))
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		name := func(tmpl int64) string {
			if t := prog.Template(int(tmpl)); t != nil {
				return t.Name
			}
			return ""
		}
		err = trace.WriteChrome(f, tr, name)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("trace: wrote %s (open at https://ui.perfetto.dev)\n", traceOut)
	}
	if timelineOut != "" {
		f, err := os.Create(timelineOut)
		if err != nil {
			return err
		}
		err = trace.WriteTimelineCSV(f, tr.Timeline)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("trace: wrote %s\n", timelineOut)
	}
	return nil
}

// serveMetrics starts the live-observability HTTP server: plain-text
// /metrics, expvar's /debug/vars, and net/http/pprof's /debug/pprof (both
// register on the default mux via their package init). Serving starts
// before the run so a second machine can watch counters move mid-run.
func serveMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.DefaultServeMux
	mux.Handle("/metrics", cluster.MetricsHandler())
	fmt.Printf("podsd metrics on http://%s/metrics\n", ln.Addr())
	go func() {
		if serr := http.Serve(ln, mux); serr != nil {
			fmt.Fprintln(os.Stderr, "podsd: metrics server:", serr)
		}
	}()
	return nil
}

// serveWorker serves driver sessions forever: each cluster.ServeWorker
// call hosts one driver's fleet (any number of jobs) and returns when
// that driver disconnects; the loop then listens again on the same
// address (pinned after the first bind, so ':0' keeps its port) for the
// next driver. The worker process stays up across drivers and jobs.
func serveWorker(addr string) error {
	for {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		addr = ln.Addr().String()
		fmt.Printf("podsd worker listening on %s\n", ln.Addr())
		if err := cluster.ServeWorker(context.Background(), ln); err != nil {
			// A refused session (a malformed KInit) ends only that session.
			fmt.Fprintf(os.Stderr, "podsd worker: %v\n", err)
		}
	}
}
