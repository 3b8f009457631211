package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/istructure"
	"repro/internal/kernels"
	"repro/internal/partition"
)

func compile(t testing.TB, name, src string) *isa.Program {
	t.Helper()
	prog, _, err := core.Compile(name, src, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// packID mints a single-job ID.
func packID(pe int, seq int64) int64 { return istructure.PackID(0, pe, seq) }

func TestIDPacking(t *testing.T) {
	// The PE field is one byte storing pe+1, so every index below MaxPEs
	// (255) round-trips, under any job namespace.
	for pe := 0; pe < istructure.MaxPEs; pe++ {
		for _, job := range []int32{0, istructure.JobMask} {
			if got := istructure.PEOf(istructure.PackID(job, pe, 1<<istructure.PEShift-1)); got != pe {
				t.Errorf("PEOf(PackID(%d, %d, _)) = %d", job, pe, got)
			}
		}
	}
	if istructure.PEOf(0) != -1 {
		t.Errorf("PEOf(0) = %d, want -1 (driver environment)", istructure.PEOf(0))
	}
	for _, job := range []int32{0, 1, 9, istructure.JobMask} {
		id := istructure.PackID(job, 3, 99)
		if got := istructure.JobOf(id); got != job {
			t.Errorf("JobOf(PackID(%d, 3, 99)) = %d", job, got)
		}
		if got, want := istructure.PEOf(id), 3; got != want {
			t.Errorf("PEOf(PackID(%d, ...)) = %d, want %d", job, got, want)
		}
	}
}

func TestExecuteMatmulAgreesWithSim(t *testing.T) {
	k, _ := kernels.ByName("matmul")
	prog := compile(t, k.File(), k.Source)
	const n = 8
	want, masks := simArraysMasked(t, prog, 4, k.Arrays, k.Args(n)...)
	for _, pes := range []int{1, 2, 4, 8} {
		res, err := Execute(testCtx(t), prog, Config{NumPEs: pes}, k.Args(n)...)
		if err != nil {
			t.Fatalf("%d PEs: %v", pes, err)
		}
		checkAgainstSimMasked(t, res, want, masks)
	}
}

func TestExecuteMirrorDeferredRemoteReads(t *testing.T) {
	k, _ := kernels.ByName("mirror")
	prog := compile(t, k.File(), k.Source)
	const n = 12
	want, masks := simArraysMasked(t, prog, 4, k.Arrays, k.Args(n)...)
	res, err := Execute(testCtx(t), prog, Config{NumPEs: 4}, k.Args(n)...)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSimMasked(t, res, want, masks)
	t.Logf("mirror @4PE: deferred=%d hits=%d misses=%d msgs=%d",
		res.Stats.DeferredReads, res.Stats.CacheHits, res.Stats.CacheMisses, res.Stats.MsgsSent)
	if res.Stats.MsgsSent == 0 {
		t.Error("4-PE mirror run sent no inter-PE messages — not message passing at all")
	}
	if res.Stats.CacheMisses == 0 {
		t.Error("no page fetches: remote reads never left the PE")
	}
}

// TestMirrorDeferredReadsPumped pins that mirror n=16 at 4 PEs (8-element
// pages) exercises the remote deferred-read path: on the harness's zero
// schedule, consumers outrun producers on 16 reads, which their
// owners queue and answer with a KToken on write. On a free-running
// schedule the count depends on the host (producers sometimes finish
// first), so the root package's determinacy test does not assert it.
func TestMirrorDeferredReadsPumped(t *testing.T) {
	k, _ := kernels.ByName("mirror")
	pinTwice(t, "mirror@4", int64(16), func() int64 {
		_, res := harnessRun(t, k, 16, 4, Config{}, schedule{})
		return res.Stats.DeferredReads
	})
}

func TestExecuteReturnsValue(t *testing.T) {
	prog := compile(t, "ret.id", `
func main(a: int, b: int) -> int {
	return a * b + 1;
}`)
	res, err := Execute(testCtx(t), prog, Config{NumPEs: 2}, isa.Int(6), isa.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value == nil || res.Value.I != 43 {
		t.Fatalf("result = %+v, want 43", res.Value)
	}
}

func TestExecuteLoopResult(t *testing.T) {
	prog := compile(t, "sum.id", `
func main(n: int) -> int {
	s = 0;
	for k = 1 to n {
		next s = s + k;
	}
	return s;
}`)
	res, err := Execute(testCtx(t), prog, Config{NumPEs: 3}, isa.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value == nil || res.Value.I != 55 {
		t.Fatalf("result = %+v, want 55", res.Value)
	}
}

func TestExecuteSingleAssignmentViolation(t *testing.T) {
	prog := compile(t, "dup.id", `
func main(n: int) {
	A = array(n);
	A[1] = 1.0;
	A[1] = 2.0;
}`)
	_, err := Execute(testCtx(t), prog, Config{NumPEs: 2}, isa.Int(8))
	if err == nil {
		t.Fatal("want single-assignment violation error")
	}
}

func TestExecuteDeadlockReported(t *testing.T) {
	t.Parallel() // it waits two seconds, beside the CPU-bound tests
	prog := compile(t, "dead.id", `
func main(n: int) {
	A = array(n);
	B = array(n);
	B[1] = A[1];
}`)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := Execute(ctx, prog, Config{NumPEs: 2}, isa.Int(8))
	if err == nil {
		t.Fatal("want deadlock error for read of never-written element")
	}
}

// TestExecuteRejectsTooManyPEs: a PE index past the ID's one-byte PE field
// would read back as another PE (or as the driver), so a run on more PEs
// than an ID can name is refused before any worker starts.
func TestExecuteRejectsTooManyPEs(t *testing.T) {
	prog := compile(t, "fill.id", `
func main(n: int) -> int {
	A = array(n);
	for i = 1 to n {
		A[i] = float(i);
	}
	return n;
}`)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := Execute(ctx, prog, Config{NumPEs: istructure.MaxPEs + 1, PageElems: 1}, isa.Int(2*(istructure.MaxPEs+1)))
	if err == nil || !strings.Contains(err.Error(), "maximum 255") {
		t.Fatalf("Execute on %d PEs: err = %v, want the 255-PE bound", istructure.MaxPEs+1, err)
	}
	if err := (&Config{NumPEs: istructure.MaxPEs}).fill(); err != nil {
		t.Errorf("fill refused %d PEs: %v", istructure.MaxPEs, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Execute(testCtx(t), compile(t, "t.id", `func main(n: int) { A = array(n); A[1] = 1.0; }`),
		Config{NumPEs: 2, Workers: []string{"a:1", "b:2", "c:3"}}, isa.Int(4)); err == nil {
		t.Fatal("want NumPEs/Workers conflict error")
	}
	for _, bad := range []Config{
		{NumPEs: 2, CachePages: -1},
		// Every PE allocates its whole trace ring up front.
		{NumPEs: 2, Trace: true, TraceCap: maxTraceCap + 1},
	} {
		if err := bad.fill(); err == nil {
			t.Errorf("fill accepted %+v", bad)
		}
	}
}

// newChanTransport builds n workers plus the driver (index n) on a channel
// transport with no fault injection, each as a fleet-level (job 0)
// jobEndpoint; latency, when non-zero, is injected on every hop.
func newChanTransport(n int, latency time.Duration) []*jobEndpoint {
	t := newChanNet(n, latency)
	eps := make([]*jobEndpoint, n+1)
	for i := range eps {
		eps[i] = &jobEndpoint{out: t.endpoint(i), in: t.ins[i].box}
	}
	return eps
}
