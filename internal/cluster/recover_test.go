package cluster

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/kernels"
)

// Tests for worker-failure recovery: the fault injector killing a PE
// mid-run, a death during the result gather, TCP re-homing onto a spare
// worker, a peer a worker cannot reach, and a death with no spare left.

// runKilled executes a kernel on a fleet with s set, which kills PE s.pe
// after s.after frames, then checks the arrays bit-for-bit against the
// simulator.
func runKilled(t *testing.T, k kernels.Kernel, n, pes int, s seams, cfg Config) *Result {
	t.Helper()
	prog := compile(t, k.File(), k.Source)
	wantVals, wantMasks := simArraysMasked(t, prog, pes, k.Arrays, k.Args(n)...)
	cfg.NumPEs = pes
	res, err := execWith(testCtx(t), prog, cfg, s, k.Args(n)...)
	if err != nil {
		t.Fatalf("killed run (pes=%d kill=%d after=%d): %v", pes, s.pe, s.after, err)
	}
	checkAgainstSimMasked(t, res, wantVals, wantMasks)
	return res
}

func TestRecoverKillMidRun(t *testing.T) {
	k, _ := kernels.ByName("heat")
	for _, pes := range []int{2, 4, 8} {
		res := runKilled(t, k, 10, pes, seams{pe: 1, after: 4}, Config{PageElems: 8})
		if res.Stats.Recoveries < 1 {
			t.Errorf("%d PEs: Recoveries = %d, want >= 1 (kill never fired?)", pes, res.Stats.Recoveries)
		}
		t.Logf("%d PEs: recoveries=%d msgs=%d", pes, res.Stats.Recoveries, res.Stats.MsgsSent)
	}
}

// TestKillWaitsForAnAssignment: the entry SP recurses locally before its
// first fan-out, so idle PE 1 acks many probe rounds holding nothing. The
// kill must still land after PE 1 was sent its copy, while the job runs.
func TestKillWaitsForAnAssignment(t *testing.T) {
	k := kernels.Kernel{Name: "late", Args: func(n int) []isa.Value { return []isa.Value{isa.Int(int64(n))} },
		Arrays: []string{"A"}, Source: `
func fib(k: int) -> float {
	return if k < 2 then float(k) else fib(k - 1) + fib(k - 2);
}

func main(n: int) {
	x = fib(16);
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = x + float(i * j);
		}
	}
}`}
	res := runKilled(t, k, 10, 2, seams{pe: 1, after: 2}, Config{PageElems: 8})
	if res.Stats.Recoveries < 1 {
		t.Errorf("Recoveries = %d, want >= 1", res.Stats.Recoveries)
	}
}

// TestRecoverKillPEZero kills the PE that runs the entry SP: the re-run
// must still converge to the reference results.
func TestRecoverKillPEZero(t *testing.T) {
	k, _ := kernels.ByName("heat")
	res := runKilled(t, k, 10, 4, seams{pe: 0, after: 6}, Config{PageElems: 8})
	if res.Stats.Recoveries < 1 {
		t.Errorf("Recoveries = %d, want >= 1", res.Stats.Recoveries)
	}
}

// TestRecoverWithDynamicMechanisms kills a PE while stealing, adaptive
// repartitioning and a page-cache cap are all engaged.
func TestRecoverWithDynamicMechanisms(t *testing.T) {
	for _, name := range []string{"triangular", "relax"} {
		k, _ := kernels.ByName(name)
		n := 10
		if name == "relax" {
			n = 8
		}
		res := runKilled(t, k, n, 4, seams{probe: fastProbe, pe: 2, after: 2},
			Config{PageElems: 8, Steal: true, Adapt: true, CachePages: 2})
		if res.Stats.Recoveries < 1 {
			t.Errorf("%s: Recoveries = %d, want >= 1", name, res.Stats.Recoveries)
		}
	}
}

// --- a death during the result gather ---

// killOnDump wraps a fleet's driver endpoint: on the driver's first
// KDumpReq it kills PE 1 on the channel transport (its host's box severed,
// every job inbox on it shut, a down notice to the driver) before passing
// the request on. With its job inbox still open, PE 1 would answer the
// gather, and the job could finish before the fleet heard of the death.
type killOnDump struct {
	Endpoint
	cn    *chanTransport
	fired bool
}

func (e *killOnDump) Send(to int, m *Msg) error {
	if m.Kind == KDumpReq && !e.fired {
		e.fired = true
		e.cn.ins[1].box.sever()
		e.cn.ins[1].shut()
		e.cn.ins[len(e.cn.ins)-1].put(&Msg{Kind: KDown, From: 1})
	}
	return e.Endpoint.Send(to, m)
}

// TestRecoverDeathDuringGather: PE 1 dies after termination, while the
// driver gathers the arrays, so some of the finished segments are lost.
// The job runs again and still matches the simulator.
func TestRecoverDeathDuringGather(t *testing.T) {
	k, prog := compileKernel(t, "matmul")
	wantVals, wantMasks := simArraysMasked(t, prog, 2, k.Arrays, k.Args(6)...)
	f, err := OpenFleet(testCtx(t), Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.ep = &killOnDump{Endpoint: f.ep, cn: f.cnet}
	res, err := f.Submit(testCtx(t), prog, Config{PageElems: 8}, k.Args(6)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", res.Stats.Recoveries)
	}
	checkAgainstSimMasked(t, res, wantVals, wantMasks)
}

// --- TCP recovery onto a spare worker ---

// startServeWorker runs one in-process ServeWorker on a loopback listener
// and returns its address and a kill function that severs it mid-run. The
// caller must have registered the WaitGroup's Wait as a cleanup *before*
// the first call, so the LIFO cleanup order cancels every worker first.
func startServeWorker(t *testing.T, wg *sync.WaitGroup) (addr string, kill func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln.Addr().String(), serveWorkerOn(t, wg, ln)
}

// serveWorkerOn runs one in-process ServeWorker on ln, as startServeWorker
// does, and returns its kill function.
func serveWorkerOn(t *testing.T, wg *sync.WaitGroup, ln net.Listener) (kill func()) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = ServeWorker(ctx, ln)
	}()
	return cancel
}

// TestRecoverTCPSpare is the TCP half of recovery end to end, in process:
// four ServeWorker PEs on loopback plus one spare; one worker is severed
// mid-run; the driver re-homes its PE onto the spare, runs the job again,
// and the results still match the simulator bit for bit.
func TestRecoverTCPSpare(t *testing.T) {
	k, _ := kernels.ByName("relax")
	prog := compile(t, k.File(), k.Source)
	// Long-running arguments: enough gate-serialized sweeps that the kill
	// timer below reliably lands mid-run over loopback TCP.
	args := []isa.Value{isa.Int(12), isa.Int(96)}
	wantVals, wantMasks := simArraysMasked(t, prog, 4, k.Arrays, args...)

	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	cfg := Config{PageElems: 8}
	var kills []func()
	for i := 0; i < 4; i++ {
		addr, kill := startServeWorker(t, &wg)
		cfg.Workers = append(cfg.Workers, addr)
		kills = append(kills, kill)
	}
	spareAddr, _ := startServeWorker(t, &wg)
	cfg.Spares = []string{spareAddr}

	// Sever worker 2 a moment into the run. The exact instant does not
	// matter for correctness — that is the point — but it must land before
	// the run finishes for the recovery assertions below.
	timer := time.AfterFunc(25*time.Millisecond, kills[2])
	defer timer.Stop()

	start := time.Now()
	res, err := execWith(testCtx(t), prog, cfg, seams{probe: time.Millisecond}, args...)
	if err != nil {
		t.Fatalf("TCP run with spare: %v", err)
	}
	checkAgainstSimMasked(t, res, wantVals, wantMasks)
	if res.Stats.Recoveries < 1 {
		t.Skip("run finished before the kill landed (recoveries=0); results verified anyway")
	}
	t.Logf("tcp spare recovery: recoveries=%d in %v", res.Stats.Recoveries, time.Since(start))
}

// firstAccept is a listener that reports when it has accepted its first
// connection.
type firstAccept struct {
	net.Listener
	once     sync.Once
	accepted chan struct{}
}

func (l *firstAccept) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.once.Do(func() { close(l.accepted) })
	}
	return c, err
}

// TestRecoverUnreachablePeer: worker 1 stops listening once it has
// accepted the driver, so it still answers the driver while PE 0's lazy
// dial to it, for matmul's alloc broadcast, is refused. PE 0 reports the
// peer lost. With a spare, PE 1 is re-homed and the job runs again to the
// simulator's arrays; without one, the job fails at once, naming the
// dial failure, instead of hanging with every PE still answering probes.
func TestRecoverUnreachablePeer(t *testing.T) {
	k, prog := compileKernel(t, "matmul")
	args := k.Args(6)
	wantVals, wantMasks := simArraysMasked(t, prog, 2, k.Arrays, args...)
	for _, spare := range []bool{true, false} {
		t.Run(fmt.Sprintf("spare=%v", spare), func(t *testing.T) {
			var wg sync.WaitGroup
			t.Cleanup(wg.Wait)
			cfg := Config{NumPEs: 2, PageElems: 8}
			addr, _ := startServeWorker(t, &wg)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			w1 := &firstAccept{Listener: ln, accepted: make(chan struct{})}
			serveWorkerOn(t, &wg, w1)
			cfg.Workers = []string{addr, ln.Addr().String()}
			if spare {
				spareAddr, _ := startServeWorker(t, &wg)
				cfg.Spares = []string{spareAddr}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			f, err := OpenFleet(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			<-w1.accepted
			ln.Close()

			start := time.Now()
			res, err := f.Submit(ctx, prog, cfg, args...)
			if !spare {
				if err == nil || !strings.Contains(err.Error(), "dialing peer 1") ||
					!strings.Contains(err.Error(), "re-homing pe 1: no spare worker addresses left") {
					t.Fatalf("%v; want the dial failure and no spare to re-home onto", err)
				}
				if d := time.Since(start); d > 5*time.Second {
					t.Fatalf("the job took %v to fail", d)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstSimMasked(t, res, wantVals, wantMasks)
			if res.Stats.Recoveries != 1 {
				t.Errorf("Recoveries = %d, want 1", res.Stats.Recoveries)
			}
		})
	}
}

// TestFleetLateJobHearsOfDeadHost: a job admitted after a host died is
// told at once. Worker 1 of a TCP fleet without spares is severed before
// any job, so each Submit must fail at once, keeping the death as the
// cause, instead of waiting out a silent probe round.
func TestFleetLateJobHearsOfDeadHost(t *testing.T) {
	k, prog := compileKernel(t, "matmul")
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	var cfg Config
	var kills []func()
	for i := 0; i < 2; i++ {
		addr, kill := startServeWorker(t, &wg)
		cfg.Workers = append(cfg.Workers, addr)
		kills = append(kills, kill)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f, err := OpenFleet(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kills[1]()
	for dead := false; !dead && ctx.Err() == nil; {
		time.Sleep(time.Millisecond)
		f.mu.Lock()
		dead = f.deadPending[1]
		f.mu.Unlock()
	}
	for job := 1; job <= 2; job++ {
		start := time.Now()
		_, err := f.Submit(ctx, prog, Config{PageElems: 8}, k.Args(6)...)
		if want := "cluster: worker 1 died (transport closed); re-homing pe 1: no spare worker addresses left"; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("job %d: %v; want %q", job, err, want)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("job %d took %v to fail", job, d)
		}
	}
}
