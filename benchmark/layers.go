package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
	"repro/internal/podsrt"
	"repro/internal/sim"
	"repro/internal/simple"
)

// The micro-timings below call one exported function of one layer in a
// loop. Each is the median of microBatches batches, so one pre-empted batch
// does not move the figure.
const microBatches = 5

// nsPerOp runs batch microBatches times; batch does its own untimed
// preparation and returns how many operations it timed and for how long.
func nsPerOp(batch func() (ops int, d time.Duration)) float64 {
	per := make([]float64, microBatches)
	for i := range per {
		ops, d := batch()
		per[i] = float64(d.Nanoseconds()) / float64(ops)
	}
	return median(per)
}

// sink keeps the compiler from deleting the measured calls.
var sink isa.Value

var (
	intOps   = []isa.Opcode{isa.IADD, isa.ISUB, isa.IMUL, isa.IDIV, isa.IMOD, isa.CMPLT, isa.CMPEQ, isa.MAX}
	floatOps = []isa.Opcode{isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.CMPLE, isa.MIN}
)

// evalScalarMicro times isa.EvalScalar, the ALU all three backends share,
// on a seeded sequence of opcodes and operands.
func evalScalarMicro(rng *rand.Rand, passes int) float64 {
	type op struct {
		code isa.Opcode
		a, b isa.Value
	}
	seq := make([]op, 4096)
	for i := range seq {
		if rng.Intn(2) == 0 {
			seq[i] = op{floatOps[rng.Intn(len(floatOps))], isa.Float(rng.Float64() + 0.5), isa.Float(rng.Float64() + 0.5)}
		} else {
			// Divisors are never zero, so no operation fails.
			seq[i] = op{intOps[rng.Intn(len(intOps))], isa.Int(rng.Int63n(1 << 20)), isa.Int(1 + rng.Int63n(1000))}
		}
	}
	return nsPerOp(func() (int, time.Duration) {
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			for i := range seq {
				sink, _ = isa.EvalScalar(seq[i].code, seq[i].a, seq[i].b)
			}
		}
		return passes * len(seq), time.Since(t0)
	})
}

// podsCodecMicro times the .pods codec on the workload's programs.
func podsCodecMicro(m measured, progs map[string]*isa.Program) error {
	for _, prog := range progs {
		var wire []byte
		var err error
		enc := make([]float64, 21)
		dec := make([]float64, 21)
		for i := range enc {
			t0 := time.Now()
			wire, err = isa.MarshalPods(prog)
			enc[i] = time.Since(t0).Seconds()
			if err != nil {
				return fmt.Errorf("isa.MarshalPods: %w", err)
			}
			t0 = time.Now()
			_, err = isa.UnmarshalPods(wire)
			dec[i] = time.Since(t0).Seconds()
			if err != nil {
				return fmt.Errorf("isa.UnmarshalPods: %w", err)
			}
		}
		m["isa.marshal_pods_us"] += median(enc) * 1e6
		m["isa.unmarshal_pods_us"] += median(dec) * 1e6
		m["isa.pods_bytes"] += float64(len(wire))
	}
	return nil
}

// istructureMicros times Shard's public operations on seeded offset
// sequences: an owned side x side array for the local operations, and PE
// 0's view of a two-PE array (half the pages remote) for the page cache.
func istructureMicros(m measured, rng *rand.Rand, side int) error {
	const pageElems = 32
	elems := side * side
	perm := rng.Perm(elems)
	var err error
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	var nextID int64
	owned := func() (*istructure.Shard, *istructure.Header) {
		nextID++
		h, e := istructure.NewHeader(nextID, "A", []int{side, side}, pageElems, 1, 0, true)
		fail(e)
		s := istructure.NewShard(0)
		if e == nil {
			fail(s.Install(h))
		}
		return s, h
	}
	writeAll := func(s *istructure.Shard, h *istructure.Header) time.Duration {
		t0 := time.Now()
		for _, off := range perm {
			_, _, e := s.Write(h.ID, off, isa.Float(float64(off)))
			fail(e)
		}
		return time.Since(t0)
	}

	m["istructure.write_ns_op"] = nsPerOp(func() (int, time.Duration) {
		s, h := owned()
		return elems, writeAll(s, h)
	})
	m["istructure.readlocal_ns_op"] = nsPerOp(func() (int, time.Duration) {
		s, h := owned()
		writeAll(s, h)
		t0 := time.Now()
		for _, off := range perm {
			sink, _, _ = s.ReadLocal(h.ID, off, istructure.Waiter{})
		}
		return elems, time.Since(t0)
	})
	// One deferred read of an absent element plus the write that releases it.
	m["istructure.deferred_ns_op"] = nsPerOp(func() (int, time.Duration) {
		s, h := owned()
		t0 := time.Now()
		for i, off := range perm {
			_, _, e := s.ReadLocal(h.ID, off, istructure.Waiter{SP: int64(i)})
			fail(e)
		}
		d := time.Since(t0)
		return elems, d + writeAll(s, h)
	})
	m["istructure.offset_ns_op"] = nsPerOp(func() (int, time.Duration) {
		_, h := owned()
		idx := make([]int64, 2)
		var acc int
		t0 := time.Now()
		for _, off := range perm {
			idx[0], idx[1] = int64(off/side+1), int64(off%side+1)
			o, _ := h.Offset(idx) // indices are in range by construction
			acc += o
		}
		d := time.Since(t0)
		sink = isa.Int(int64(acc))
		return elems, d
	})
	m["istructure.extractpage_ns_op"] = nsPerOp(func() (int, time.Duration) {
		s, h := owned()
		writeAll(s, h)
		ops := elems / 16
		t0 := time.Now()
		for _, off := range perm[:ops] {
			_, _, _, e := s.ExtractPage(h.ID, off)
			fail(e)
		}
		return ops, time.Since(t0)
	})

	// The page cache: PE 0 caches the pages PE 1 owns.
	h2, e := istructure.NewHeader(1<<20, "R", []int{side, side}, pageElems, 2, 0, true)
	if e != nil {
		return e
	}
	lo, hi := h2.SegmentPages(1)
	pages := make([]*istructure.CachedPage, hi-lo)
	for i := range pages {
		pg := &istructure.CachedPage{Vals: make([]isa.Value, pageElems), Set: make([]bool, pageElems)}
		for j := range pg.Set {
			pg.Vals[j], pg.Set[j] = isa.Float(float64(i*pageElems+j)), true
		}
		pages[i] = pg
	}
	pageOrder := rng.Perm(len(pages))
	installAll := func(capPages int) (*istructure.Shard, time.Duration) {
		s := istructure.NewShard(0)
		s.CacheCap = capPages
		fail(s.Install(h2))
		t0 := time.Now()
		for _, i := range pageOrder {
			s.InstallPage(h2.ID, lo+i, pages[i])
		}
		return s, time.Since(t0)
	}
	m["istructure.installpage_ns_op"] = nsPerOp(func() (int, time.Duration) {
		_, d := installAll(0)
		return len(pages), d
	})
	// With a 4-page cap every install past the fourth evicts first.
	m["istructure.install_evict_ns_op"] = nsPerOp(func() (int, time.Duration) {
		_, d := installAll(4)
		return len(pages), d
	})
	elo, ehi := h2.SegmentElems(1)
	m["istructure.cachelookup_ns_op"] = nsPerOp(func() (int, time.Duration) {
		s, _ := installAll(0)
		hits := 0
		t0 := time.Now()
		for _, off := range perm {
			v, _, hit := s.CacheLookup(h2.ID, h2, elo+off%(ehi-elo))
			sink = v
			if hit {
				hits++
			}
		}
		d := time.Since(t0)
		if hits != len(perm) {
			fail(fmt.Errorf("istructure.CacheLookup: %d of %d lookups hit a fully cached segment", hits, len(perm)))
		}
		return len(perm), d
	})
	return err
}

// traceRecordMicro times the flight recorder's Record on a full ring.
func traceRecordMicro(m measured, ops int64) {
	rec := trace.New(4096, 1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m["trace.record_ns_op"] = nsPerOp(func() (int, time.Duration) {
		t0 := time.Now()
		for i := int64(0); i < ops; i++ {
			rec.Record(trace.EvSPDispatch, i, i, 1)
		}
		return int(ops), time.Since(t0)
	})
	runtime.ReadMemStats(&ms1)
	m["trace.record_allocs_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops*microBatches)
}

// podsrtMicro runs SIMPLE on the goroutine runtime, for comparison only.
func (r *run) podsrtMicro(ctx context.Context, m measured) error {
	n, reps := 64, 3
	if r.o.tiny {
		n, reps = 8, 1
	}
	e := &env{}
	prog, err := e.compileProgram(nil, -1, "simple", simple.Source)
	if err != nil {
		return err
	}
	walls := make([]float64, reps)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range walls {
		rt, err := podsrt.New(prog, podsrt.Config{VirtualPEs: numPEs})
		if err != nil {
			return fmt.Errorf("podsrt.New: %w", err)
		}
		t0 := time.Now()
		if _, err := rt.Run(ctx, isa.Int(int64(n))); err != nil {
			return fmt.Errorf("podsrt run: %w", err)
		}
		walls[i] = time.Since(t0).Seconds()
	}
	runtime.ReadMemStats(&ms1)
	m["podsrt.wall_s"] = median(walls)
	m["podsrt.allocs_per_job"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(reps)
	return nil
}

// nativeStep times the plain single-threaded SIMPLE step at mesh size n.
func nativeStep(n int) time.Duration {
	times := make([]float64, 9)
	for i := range times {
		g := simple.NewGrid(n)
		t0 := time.Now()
		g.Step()
		times[i] = time.Since(t0).Seconds()
	}
	return time.Duration(median(times) * float64(time.Second))
}

// floorSource is the least job the control plane can run: no arrays, no
// spawns, one token back.
const floorSource = `func main(n: int) -> int { return n + 1; }`

// submitFloors times that job on an idle chan fleet, through Fleet.Submit
// and through the job server's socket (Fleet.ServeJobs + cluster.SubmitJob):
// the part of every job's latency that is control plane alone.
func (r *run) submitFloors(ctx context.Context, m measured) error {
	jobs := 200
	if r.o.tiny {
		jobs = 5
	}
	e := &env{}
	prog, err := e.compileProgram(nil, -1, "floor", floorSource)
	if err != nil {
		return err
	}
	fleet, err := cluster.OpenFleet(ctx, cluster.Config{NumPEs: numPEs})
	if err != nil {
		return fmt.Errorf("opening floor fleet: %w", err)
	}
	defer fleet.Close()
	check := func(v *isa.Value, i int) error {
		if v == nil || v.AsInt() != int64(i)+1 {
			return fmt.Errorf("floor job %d returned %v", i, v)
		}
		return nil
	}

	direct := make([]float64, jobs)
	for i := range direct {
		t0 := time.Now()
		res, err := fleet.Submit(ctx, prog, cluster.Config{}, isa.Int(int64(i)))
		direct[i] = time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("floor submit: %w", err)
		}
		if err := check(res.Value, i); err != nil {
			return err
		}
	}
	m["cluster.submit_floor_ms"] = median(direct) * 1e3

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening for the job server: %w", err)
	}
	sctx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- fleet.ServeJobs(sctx, ln) }()
	defer func() {
		cancel()
		<-served
	}()
	socket := make([]float64, jobs)
	for i := range socket {
		t0 := time.Now()
		reply, err := cluster.SubmitJob(ctx, ln.Addr().String(), prog, cluster.Config{}, isa.Int(int64(i)))
		socket[i] = time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("floor SubmitJob: %w", err)
		}
		if err := check(reply.Value, i); err != nil {
			return err
		}
	}
	m["cluster.submitjob_floor_ms"] = median(socket) * 1e3
	return nil
}

// tcpVersusChan reruns the TCP workload's job on a chan fleet for dur, so
// the codec and socket cost is a ratio measured within one process.
func (r *run) tcpVersusChan(ctx context.Context, m measured, tcp *phase, dur time.Duration) error {
	cw := *r.w
	cw.tcp = false
	e, err := cw.setUp(ctx, nil, -1)
	if err != nil {
		return err
	}
	defer e.close()
	rc := &run{w: &cw, o: r.o, root: -1, env: e, refs: r.refs}
	warm := &phase{}
	rc.job(ctx, warm, 0, 0, false)
	p := rc.runPhase(ctx, false, dur)
	if warm.failed+p.failed > 0 {
		return fmt.Errorf("chan comparison: %d jobs failed", warm.failed+p.failed)
	}
	wt, wc := median(tcp.latencies()), median(p.latencies())
	m["cluster.tcp_over_chan_ratio"] = ratio(wt, wc)
	m["cluster.tcp_extra_us_per_msg"] = ratio((wt-wc)*1e6, ratio(float64(tcp.cl.stats.MsgsSent), float64(tcp.cl.jobs)))
	return nil
}

// layerMicros runs the layer timings that belong to the traced pass only.
func (r *run) layerMicros(ctx context.Context, m measured, plain *phase) error {
	layers := r.rec.begin(r.root, 0, "layers")
	defer r.rec.end(layers)
	var err error
	step := func(name string, fn func() error) {
		if err == nil {
			timed(r.rec, layers, 0, name, func() { err = fn() })
		}
	}
	rng := rand.New(rand.NewSource(r.o.seed))
	// Operation counts per batch; the smoke test shrinks them.
	passes, side, records := 128, 512, int64(1<<20)
	if r.o.tiny {
		passes, side, records = 1, 32, 1<<10
	}
	step("isa.EvalScalar", func() error {
		m["isa.evalscalar_ns_op"] = evalScalarMicro(rng, passes)
		return nil
	})
	step("isa.MarshalPods", func() error { return podsCodecMicro(m, r.env.progs) })
	step("istructure.Shard", func() error { return istructureMicros(m, rng, side) })
	step("trace.Record", func() error { traceRecordMicro(m, records); return nil })
	step("podsrt.Run", func() error { return r.podsrtMicro(ctx, m) })
	step("simple.Grid.Step", func() error {
		n := 128
		if s := r.w.specs[0].simple; s > 0 {
			n = s
		}
		native := nativeStep(n)
		m["simple.native_step_ms"] = native.Seconds() * 1e3
		if r.w.specs[0].simple > 0 {
			m["simple.slowdown_vs_native"] = ratio(m["bench.raw_wall_s"], native.Seconds())
		}
		return nil
	})
	step("cluster.Submit floor", func() error { return r.submitFloors(ctx, m) })
	if r.w.tcp {
		step("chan comparison", func() error { return r.tcpVersusChan(ctx, m, plain, plain.dur/2) })
	}
	if r.w.sim {
		// T(1 PE)/T(simPEs) in virtual time: the paper's Figure 10 speed-up.
		step("sim.Run 1 PE", func() error {
			s := &r.w.specs[0]
			one, err := sim.New(r.env.progs[s.kernel], sim.Config{NumPEs: 1})
			if err != nil {
				return err
			}
			res, err := one.Run(s.args...)
			if err != nil {
				return err
			}
			m["sim.virtual_speedup"] = ratio(float64(res.Time), plain.sm.virtualNs/float64(plain.sm.runs))
			return nil
		})
	}
	return err
}

// processLayer fills the process-wide and harness figures.
func processLayer(m measured, rec *spanRec) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m["go.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["go.num_gc"] = float64(ms.NumGC)
	m["go.gc_pause_total_ms"] = float64(ms.PauseTotalNs) / 1e6
	m["bench.harness_self_ms"] = rec.harnessSelf().Seconds() * 1e3
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitSHA: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitSHA = s.Value
			}
		}
	}
	return h
}
