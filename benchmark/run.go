package main

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/trace"
	"repro/internal/graph"
	"repro/internal/idlang"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/translate"
)

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool // the smoke test's sizes and job counts
}

// env is what one set-up builds: the compiled programs and the open backend.
type env struct {
	progs map[string]*isa.Program
	fleet *cluster.Fleet // nil on the sim workload
	stop  func()         // stops the loopback TCP workers, if any

	compile, translate, partition, open time.Duration
}

func (e *env) close() {
	if e.fleet != nil {
		_ = e.fleet.Close() // nothing to report: the run's results are in hand
	}
	if e.stop != nil {
		e.stop()
	}
}

// timed runs fn under a span and returns how long it took.
func timed(rec *spanRec, parent, client int, name string, fn func()) time.Duration {
	id := rec.begin(parent, client, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	rec.end(id)
	return d
}

// compileProgram runs source through the pipeline, timing each stage into e.
func (e *env) compileProgram(rec *spanRec, parent int, name, source string) (*isa.Program, error) {
	var gp *graph.Program
	var prog *isa.Program
	var err error
	e.compile += timed(rec, parent, 0, "idlang.Compile", func() {
		gp, err = idlang.Compile(name+".id", source)
	})
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", name, err)
	}
	e.translate += timed(rec, parent, 0, "translate.Translate", func() {
		prog, err = translate.Translate(gp)
	})
	if err != nil {
		return nil, fmt.Errorf("translating %s: %w", name, err)
	}
	e.partition += timed(rec, parent, 0, "partition.Partition", func() {
		_, err = partition.Partition(prog, partition.Options{})
	})
	if err != nil {
		return nil, fmt.Errorf("partitioning %s: %w", name, err)
	}
	return prog, nil
}

// startTCPWorkers runs numPEs cluster.ServeWorker PEs on loopback listeners
// inside this process and returns their addresses and a stop function that
// returns once every worker goroutine has exited.
func startTCPWorkers(ctx context.Context) ([]string, func(), error) {
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	stop := func() { cancel(); wg.Wait() }
	addrs := make([]string, numPEs)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("listening for worker %d: %w", i, err)
		}
		addrs[i] = ln.Addr().String()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cluster.ServeWorker(wctx, ln) // ends with the fleet's stop or wctx
		}()
	}
	return addrs, stop, nil
}

// setUp is the cold path a user pays before the first job: source through
// the compile pipeline, then the backend (fleet, or listeners plus fleet;
// one sim.New on the sim workload, whose machines are single-use).
func (w *workload) setUp(ctx context.Context, rec *spanRec, parent int) (*env, error) {
	e := &env{progs: make(map[string]*isa.Program)}
	for _, s := range w.specs {
		if e.progs[s.kernel] != nil {
			continue
		}
		prog, err := e.compileProgram(rec, parent, s.kernel, s.source)
		if err != nil {
			return nil, err
		}
		e.progs[s.kernel] = prog
	}
	var err error
	if w.sim {
		e.open = timed(rec, parent, 0, "sim.New", func() {
			_, err = sim.New(e.progs[w.specs[0].kernel], sim.Config{NumPEs: simPEs})
		})
		return e, err
	}
	e.open = timed(rec, parent, 0, "cluster.OpenFleet", func() {
		cfg := cluster.Config{NumPEs: numPEs, MaxJobs: w.maxJobs}
		if w.tcp {
			cfg.NumPEs = 0
			cfg.Workers, e.stop, err = startTCPWorkers(ctx)
			if err != nil {
				return
			}
		}
		e.fleet, err = cluster.OpenFleet(ctx, cfg)
	})
	if err != nil {
		e.close()
		return nil, fmt.Errorf("opening fleet: %w", err)
	}
	return e, nil
}

// run is one workload being measured.
type run struct {
	w     *workload
	o     options
	rec   *spanRec // nil in the untraced pass
	root  int      // the workload span
	env   *env
	refs  []reference // one per spec
	order []int

	failLog atomic.Int32 // failures printed so far
}

// calibrate runs the reference kernel under a span of its own, so its time
// is not counted as the harness's.
func (r *run) calibrate() (d time.Duration) {
	timed(r.rec, r.root, 0, "calibrate", func() { d = r.o.calibrate() })
	return d
}

// jobOut is a finished job: its arrays plus whichever backend result exists.
type jobOut struct {
	arrays  arrayReader
	cluster *cluster.Result
	sim     *sim.Result
}

// submit runs one job of spec si on the workload's backend.
func (r *run) submit(ctx context.Context, si int, traced bool) (jobOut, error) {
	s := &r.w.specs[si]
	prog := r.env.progs[s.kernel]
	if r.w.sim {
		cfg := sim.Config{NumPEs: simPEs}
		if traced {
			cfg.Trace = io.Discard
		}
		m, err := sim.New(prog, cfg)
		if err != nil {
			return jobOut{}, err
		}
		res, err := m.Run(s.args...)
		return jobOut{arrays: m, sim: res}, err
	}
	cfg := s.cfg
	if traced {
		cfg = traceKnobs(cfg)
	}
	res, err := r.env.fleet.Submit(ctx, prog, cfg, s.args...)
	if err != nil {
		return jobOut{}, err
	}
	return jobOut{arrays: res, cluster: res}, nil
}

// clusterAgg sums the cluster counters of a phase's jobs.
type clusterAgg struct {
	jobs      int
	stats     cluster.Stats
	instrs    int64
	imbalance float64 // sum over jobs of max/mean PEInstrs
}

func (a *clusterAgg) add(res *cluster.Result) {
	a.jobs++
	s, t := &a.stats, res.Stats
	s.DeferredReads += t.DeferredReads
	s.CacheHits += t.CacheHits
	s.CacheMisses += t.CacheMisses
	s.Evictions += t.Evictions
	s.Refetches += t.Refetches
	s.MsgsSent += t.MsgsSent
	s.Steals += t.Steals
	s.Forwards += t.Forwards
	s.Rebounds += t.Rebounds
	s.Prefetches += t.Prefetches
	s.PrefetchHits += t.PrefetchHits
	var sum, peak int64
	for _, n := range res.PEInstrs {
		sum += n
		peak = max(peak, n)
	}
	a.instrs += sum
	a.imbalance += ratio(float64(peak)*float64(len(res.PEInstrs)), float64(sum))
}

// simAgg sums simulator results: the timed jobs on the sim workload, the
// reference runs elsewhere.
type simAgg struct {
	runs              int
	host              time.Duration
	mallocs           uint64
	instrs            int64
	virtualNs         float64
	euUtil            float64
	small, page, ctxs int64
}

func (a *simAgg) add(res *sim.Result, host time.Duration) {
	a.runs++
	a.host += host
	a.instrs += res.Counts.Instructions
	a.virtualNs += float64(res.Time)
	a.euUtil += res.Utilization("EU")
	a.small += res.Counts.SmallMsgs
	a.page += res.Counts.PageMsgs
	a.ctxs += res.Counts.CtxSwitches
}

// traceAgg sums what the runtime's own recorder gathered over traced jobs.
type traceAgg struct {
	jobs                               int
	events, drops, dispatches, fetches int64
	rounds                             int
	busyRounds                         int
	tail                               time.Duration
}

func (a *traceAgg) add(t *trace.Trace) {
	a.jobs++
	a.events += int64(t.Events())
	a.drops += t.Drops()
	for _, pe := range t.PEs {
		for _, ev := range pe.Events {
			switch ev.Kind {
			case trace.EvSPDispatch:
				a.dispatches++
			case trace.EvPageFetch:
				a.fetches++
			}
		}
	}
	if t.Timeline == nil {
		return
	}
	// A round is busy when any PE executed or sent in it; the tail is the
	// time the control plane took from the last busy round to the last
	// (terminating) one.
	type round struct {
		wall int64
		busy bool
	}
	rounds := make(map[int]*round)
	last := -1
	for _, s := range t.Timeline.Samples {
		rd := rounds[s.Round]
		if rd == nil {
			rd = &round{}
			rounds[s.Round] = rd
		}
		rd.wall = max(rd.wall, s.Wall)
		rd.busy = rd.busy || s.Instrs > 0 || s.Sent > 0
		last = max(last, s.Round)
	}
	var lastBusy int64
	for _, rd := range rounds {
		if rd.busy {
			a.busyRounds++
			lastBusy = max(lastBusy, rd.wall)
		}
	}
	a.rounds += len(rounds)
	if last >= 0 && lastBusy > 0 {
		a.tail += time.Duration(rounds[last].wall - lastBusy)
	}
}

// jobRec is one completed job of a timed phase.
type jobRec struct {
	spec int
	lat  time.Duration // as measured
	cal  float64       // calibrated seconds
}

// phase is one timed closed-loop stream and what it gathered.
type phase struct {
	dur        time.Duration // streaming time as measured, calibrations excluded
	calDur     float64       // the same in calibrated seconds
	speeds     []float64     // host speed factor of each slice
	ok         []jobRec
	attempted  int
	failed     int
	allocBytes uint64
	mallocs    uint64
	rejected   int64

	mu sync.Mutex
	cl clusterAgg
	sm simAgg
	tr traceAgg
}

// latencies returns the jobs' times in calibrated seconds.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.ok))
	for i, j := range p.ok {
		out[i] = j.cal
	}
	return out
}

// job runs and checks one job; the time from the call to the result in
// hand is its latency. A job that errors or whose output mismatches the
// reference is a failed operation: it is printed and counted, never fatal.
func (r *run) job(ctx context.Context, p *phase, idx, client int, traced bool) {
	si := 0
	if r.order != nil {
		si = r.order[idx%len(r.order)]
	}
	parent := r.rec.begin(r.root, client, fmt.Sprintf("job[%d]", idx))
	var out jobOut
	var err error
	call := "Fleet.Submit"
	if r.w.sim {
		call = "sim.Run"
	}
	lat := timed(r.rec, parent, client, call, func() { out, err = r.submit(ctx, si, traced) })
	if err == nil {
		timed(r.rec, parent, client, "verify", func() { err = r.refs[si].check(out.arrays) })
	}
	r.rec.end(parent)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		if r.failLog.Add(1) <= 10 {
			fmt.Fprintf(os.Stderr, "benchmark: %s job %d (%s) failed: %v\n", r.w.name, idx, r.w.specs[si].kernel, err)
		}
		return
	}
	p.ok = append(p.ok, jobRec{spec: si, lat: lat})
	if out.cluster != nil {
		p.cl.add(out.cluster)
		if out.cluster.Trace != nil {
			p.tr.add(out.cluster.Trace)
		}
	}
	if out.sim != nil {
		p.sm.add(out.sim, lat)
	}
}

var jobsRejected = expvar.Get("pods_jobs_rejected_total")

func rejectedTotal() int64 {
	if v, ok := jobsRejected.(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// sliceDur is how long several clients stream between two calibrations:
// short enough that host speed holds still across a slice, long enough that
// the calibrations cost a few percent of the phase. A single client's jobs
// are each longer than a calibration by an order of magnitude, so there
// every job is its own slice.
const sliceDur = 250 * time.Millisecond

// runPhase streams jobs from the workload's clients for dur (at least
// minJobs jobs; exactly tinyJobs in the smoke test) and returns what it
// saw. The stream runs in slices with a calibration between them; every job
// is scaled by the host speed of its slice.
func (r *run) runPhase(ctx context.Context, traced bool, dur time.Duration) *phase {
	p := &phase{}
	var next atomic.Int64
	var ms0, ms1 runtime.MemStats
	rej0 := rejectedTotal()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	// The smoke test ends a phase by job count, a real run by the clock.
	counted := func() bool { return r.o.tiny && int(next.Load()) >= r.w.tinyJobs }
	before := r.calibrate()
	for ctx.Err() == nil && !counted() {
		if !r.o.tiny && p.attempted >= minJobs && time.Since(start) >= dur {
			break
		}
		first := len(p.ok)
		sliceStart := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < r.w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil && !counted() {
					r.job(ctx, p, int(next.Add(1)-1), c, traced)
					if r.w.clients == 1 || (!r.o.tiny && time.Since(sliceStart) >= sliceDur) {
						return
					}
				}
			}()
		}
		wg.Wait()
		d := time.Since(sliceStart)
		after := r.calibrate()
		speed := hostSpeed(before, after)
		before = after
		for i := first; i < len(p.ok); i++ {
			p.ok[i].cal = p.ok[i].lat.Seconds() * speed
		}
		p.dur += d
		p.calDur += d.Seconds() * speed
		p.speeds = append(p.speeds, speed)
	}
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.rejected = rejectedTotal() - rej0
	return p
}

// hostInfo describes where a run was made.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

// record is one run of one workload, as appended to <out>/results.jsonl.
// Metrics holds everything measured; the result line on standard output
// carries the subset BENCHMARK.json names for the pass.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Host      hostInfo           `json:"host"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`

	wallQuartiles [2]float64
	spans         *spanRec
}

// forcedEnv lists the PODS_FORCE_* variables set in the environment.
// cluster.Config.fill would silently override the workloads' knobs with
// them, so the benchmark refuses to run.
func forcedEnv() []string {
	var set []string
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "PODS_FORCE_") {
			set = append(set, name)
		}
	}
	sort.Strings(set)
	return set
}

// measure runs one workload: set-up repeats, reference, warm-up, the timed
// phase (an untraced and a traced half with -trace), and in the traced pass
// the layer micro-timings.
func measure(ctx context.Context, w *workload, o options) (*record, error) {
	if set := forcedEnv(); len(set) > 0 {
		return nil, fmt.Errorf("%s set: the knobs under test would be overridden; unset and rerun", strings.Join(set, ", "))
	}
	r := &run{w: w, o: o, root: -1}
	if o.trace {
		r.rec = newSpanRec()
	}
	r.root = r.rec.begin(-1, 0, "workload "+w.name)
	if w.order != nil {
		r.order = w.order(o.seed)
	}
	m := make(measured)

	// Set-up, repeated cold; the last one is kept.
	repeats := setupRepeats
	if o.tiny {
		repeats = 3
	}
	var setups, compiles, translates, partitions, opens []float64
	for i := 0; i < repeats; i++ {
		if r.env != nil {
			r.env.close()
		}
		var err error
		before := r.calibrate()
		id := r.rec.begin(r.root, 0, fmt.Sprintf("setup[%d]", i))
		t0 := time.Now()
		r.env, err = w.setUp(ctx, r.rec, id)
		d := time.Since(t0)
		r.rec.end(id)
		setups = append(setups, d.Seconds()*hostSpeed(before, r.calibrate()))
		if err != nil {
			return nil, err
		}
		compiles = append(compiles, r.env.compile.Seconds())
		translates = append(translates, r.env.translate.Seconds())
		partitions = append(partitions, r.env.partition.Seconds())
		opens = append(opens, r.env.open.Seconds())
	}
	defer r.env.close()
	m["setup_s"] = median(setups)
	m["idlang.compile_ms"] = median(compiles) * 1e3
	m["translate.translate_ms"] = median(translates) * 1e3
	m["partition.partition_ms"] = median(partitions) * 1e3
	if !w.sim {
		m["cluster.fleet_open_ms"] = median(opens) * 1e3
	}
	for _, prog := range r.env.progs {
		m["isa.program_templates"] += float64(len(prog.Templates))
		for _, t := range prog.Templates {
			m["isa.program_instrs"] += float64(len(t.Code))
		}
	}

	// References, outside every timed region.
	var refSim simAgg
	refSpan := r.rec.begin(r.root, 0, "reference")
	t0 := time.Now()
	for i := range w.specs {
		ref, err := r.reference(refSpan, &w.specs[i], &refSim)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", w.specs[i].kernel, err)
		}
		r.refs = append(r.refs, ref)
	}
	m["sim.reference_s"] = time.Since(t0).Seconds()
	r.rec.end(refSpan)

	// One untimed warm-up job lets lazy set-up finish before timing.
	warm := &phase{}
	r.job(ctx, warm, 0, 0, false)
	if warm.failed > 0 {
		return nil, errors.New("warm-up job failed")
	}

	dur := time.Duration(o.seconds * float64(time.Second))
	var traced *phase
	if o.trace {
		dur /= 2
	}
	plain := r.runPhase(ctx, false, dur)
	if o.trace {
		traced = r.runPhase(ctx, true, dur)
	}

	rec := &record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Host: host(),
		Attempted: plain.attempted, Failed: plain.failed, Metrics: m, spans: r.rec,
	}
	r.endToEnd(m, plain, rec)
	if o.trace {
		rec.Trace = 1
		rec.Attempted += traced.attempted
		rec.Failed += traced.failed
		sm := &refSim
		if w.sim {
			sm = &plain.sm
			sm.mallocs = plain.mallocs
		}
		r.clusterLayer(m, plain)
		simLayer(m, sm)
		r.traceLayer(m, plain, traced)
		if err := r.layerMicros(ctx, m, plain); err != nil {
			return nil, err
		}
	}
	r.rec.end(r.root)
	if o.trace {
		processLayer(m, r.rec)
	}
	return rec, nil
}

// endToEnd fills the user-visible metrics from the untraced phase. Times
// are in calibrated seconds (see calibrate.go).
func (r *run) endToEnd(m measured, p *phase, rec *record) {
	lats := p.latencies()
	sorted := sortedCopy(lats)
	m["wall_s"] = quantile(sorted, 0.5)
	m["latency_tail_ms"] = quantile(sorted, r.w.tailQ) * 1e3
	m["jobs_per_s"] = ratio(float64(len(lats)), p.calDur)
	m["alloc_mb_per_job"] = ratio(float64(p.allocBytes)/(1<<20), float64(p.attempted))
	m["bench.spread_iqr_ratio"] = iqrRatio(lats)
	m["bench.host_speed"] = median(p.speeds)
	raw := make([]float64, len(p.ok))
	for i, j := range p.ok {
		raw[i] = j.lat.Seconds()
	}
	m["bench.raw_wall_s"] = median(raw)
	rec.wallQuartiles[0], rec.wallQuartiles[1] = quartiles(lats)
}

// clusterLayer fills the per-job cluster counters from the untraced phase.
func (r *run) clusterLayer(m measured, p *phase) {
	a := &p.cl
	if a.jobs == 0 {
		return
	}
	jobs, s := float64(a.jobs), a.stats
	instrs := float64(a.instrs)
	m["cluster.instrs"] = instrs / jobs
	var busy float64 // calibrated seconds the jobs ran
	for _, j := range p.ok {
		busy += j.cal
	}
	m["cluster.minstr_per_s_per_pe"] = ratio(instrs/1e6, busy*numPEs)
	m["cluster.msgs_sent"] = float64(s.MsgsSent) / jobs
	m["cluster.msgs_per_kinstr"] = ratio(float64(s.MsgsSent)*1e3, instrs)
	m["cluster.cache_hit_ratio"] = ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses))
	m["cluster.cache_misses"] = float64(s.CacheMisses) / jobs
	m["cluster.deferred_reads"] = float64(s.DeferredReads) / jobs
	m["cluster.evictions"] = float64(s.Evictions) / jobs
	m["cluster.refetch_ratio"] = ratio(float64(s.Refetches), float64(s.CacheMisses))
	m["cluster.prefetch_useful_ratio"] = ratio(float64(s.PrefetchHits), float64(s.Prefetches))
	m["cluster.steals"] = float64(s.Steals) / jobs
	m["cluster.forwards"] = float64(s.Forwards) / jobs
	m["cluster.rebounds"] = float64(s.Rebounds) / jobs
	m["cluster.pe_imbalance"] = a.imbalance / jobs
	m["cluster.allocs_per_kinstr"] = ratio(float64(p.mallocs)*1e3, instrs)
	m["cluster.alloc_bytes_per_instr"] = ratio(float64(p.allocBytes), instrs)
	m["cluster.jobs_rejected"] = float64(p.rejected)

	if r.w.order == nil {
		return
	}
	// serve_mix: the median latency of each job kind, and the worst job.
	byKernel := make(map[string][]float64)
	for _, j := range p.ok {
		k := r.w.specs[j.spec].kernel
		byKernel[k] = append(byKernel[k], j.cal)
	}
	for k, lats := range byKernel {
		m["cluster.mix_p50_ms."+k] = median(lats) * 1e3
	}
	sorted := sortedCopy(p.latencies())
	m["cluster.latency_p99_ms"] = quantile(sorted, 0.99) * 1e3
	m["cluster.latency_max_ms"] = sorted[len(sorted)-1] * 1e3
}

func simLayer(m measured, a *simAgg) {
	if a.runs == 0 {
		return
	}
	runs := float64(a.runs)
	m["sim.minstr_per_s"] = ratio(float64(a.instrs)/1e6, a.host.Seconds())
	m["sim.allocs_per_kinstr"] = ratio(float64(a.mallocs)*1e3, float64(a.instrs))
	m["sim.virtual_ms"] = a.virtualNs / 1e6 / runs
	m["sim.eu_utilization"] = a.euUtil / runs
	m["sim.small_msgs"] = float64(a.small) / runs
	m["sim.page_msgs"] = float64(a.page) / runs
	m["sim.ctx_switches"] = float64(a.ctxs) / runs
}

// traceLayer fills what the runtime's recorder gathered in the traced half,
// and the cost of having it on.
func (r *run) traceLayer(m measured, plain, traced *phase) {
	m["trace.overhead_ratio"] = ratio(median(traced.latencies()), median(plain.latencies()))
	a := &traced.tr
	if a.jobs == 0 {
		return
	}
	jobs := float64(a.jobs)
	m["trace.events"] = float64(a.events) / jobs
	m["trace.drops"] = float64(a.drops) / jobs
	m["trace.sp_dispatches"] = float64(a.dispatches) / jobs
	m["trace.page_fetches"] = float64(a.fetches) / jobs
	m["cluster.probe_rounds"] = float64(a.rounds) / jobs
	m["cluster.termination_tail_ms"] = a.tail.Seconds() * 1e3 / jobs
	m["cluster.busy_round_share"] = ratio(float64(a.busyRounds), float64(a.rounds))
}
