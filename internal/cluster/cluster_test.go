package cluster

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/idlang"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/translate"
)

func compile(t testing.TB, name, src string) *isa.Program {
	t.Helper()
	gp, err := idlang.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Partition(prog, partition.Options{}); err != nil {
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

func TestIDPacking(t *testing.T) {
	// The PE field is one byte storing pe+1, so every index below maxPEs
	// (255) round-trips, under any job namespace.
	for pe := 0; pe < maxPEs; pe++ {
		for _, job := range []int32{0, jobMask} {
			if got := peOf(packJobID(job, pe, 1<<peShift-1)); got != pe {
				t.Errorf("peOf(packJobID(%d, %d, _)) = %d", job, pe, got)
			}
		}
	}
	if peOf(0) != -1 {
		t.Errorf("peOf(0) = %d, want -1 (driver environment)", peOf(0))
	}
	for _, job := range []int32{0, 1, 9, jobMask} {
		id := packJobID(job, 3, 99)
		if got := jobOf(id); got != job {
			t.Errorf("jobOf(packJobID(%d, 3, 99)) = %d", job, got)
		}
		if got, want := peOf(id), 3; got != want {
			t.Errorf("peOf(packJobID(%d, ...)) = %d, want %d", job, got, want)
		}
	}
	if packJobID(0, 4, 7) != packID(4, 7) {
		t.Error("job 0 must pack identically to a single-job ID")
	}
}

// simArrays runs the simulator as the reference backend, for kernels that
// write every element of the named arrays.
func simArrays(t *testing.T, prog *isa.Program, pes int, names []string, args ...isa.Value) map[string][]float64 {
	t.Helper()
	vals, masks := simArraysMasked(t, prog, pes, names, args...)
	for name, mask := range masks {
		if i := slices.Index(mask, false); i >= 0 {
			t.Fatalf("sim: %s[%d] never written", name, i)
		}
	}
	return vals
}

func checkAgainstSim(t *testing.T, res *Result, want map[string][]float64) {
	t.Helper()
	for name, ref := range want {
		vals, mask, _, err := res.ReadArray(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(ref) {
			t.Fatalf("%s: %d elements, want %d", name, len(vals), len(ref))
		}
		for i := range vals {
			if !mask[i] {
				t.Fatalf("%s[%d] never written in cluster run", name, i)
			}
			if vals[i] != ref[i] {
				t.Fatalf("%s[%d] = %v, cluster disagrees with sim's %v", name, i, vals[i], ref[i])
			}
		}
	}
}

func TestExecuteMatmulAgreesWithSim(t *testing.T) {
	k, _ := kernels.ByName("matmul")
	prog := compile(t, k.File(), k.Source)
	const n = 8
	want := simArrays(t, prog, 4, k.Arrays, k.Args(n)...)
	for _, pes := range []int{1, 2, 4, 8} {
		res, err := Execute(testCtx(t), prog, Config{NumPEs: pes}, k.Args(n)...)
		if err != nil {
			t.Fatalf("%d PEs: %v", pes, err)
		}
		checkAgainstSim(t, res, want)
	}
}

func TestExecuteMirrorDeferredRemoteReads(t *testing.T) {
	k, _ := kernels.ByName("mirror")
	prog := compile(t, k.File(), k.Source)
	const n = 12
	want := simArrays(t, prog, 4, k.Arrays, k.Args(n)...)
	res, err := Execute(testCtx(t), prog, Config{NumPEs: 4}, k.Args(n)...)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSim(t, res, want)
	t.Logf("mirror @4PE: deferred=%d hits=%d misses=%d msgs=%d",
		res.Stats.DeferredReads, res.Stats.CacheHits, res.Stats.CacheMisses, res.Stats.MsgsSent)
	if res.Stats.MsgsSent == 0 {
		t.Error("4-PE mirror run sent no inter-PE messages — not message passing at all")
	}
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
	_, err := Execute(ctx, prog, Config{NumPEs: maxPEs + 1, PageElems: 1}, isa.Int(2*(maxPEs+1)))
	if err == nil || !strings.Contains(err.Error(), "maximum 255") {
		t.Fatalf("Execute on %d PEs: err = %v, want the 255-PE bound", maxPEs+1, err)
	}
	if err := (&Config{NumPEs: maxPEs}).fill(); err != nil {
		t.Errorf("fill refused %d PEs: %v", maxPEs, err)
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
