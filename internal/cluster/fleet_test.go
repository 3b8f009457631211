package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
)

// --- concurrent jobs on one persistent TCP fleet ---

// TestFleetTCPConcurrentJobs is the distributed-process leg of the
// concurrent-jobs determinacy column: four jobs of mixed kernels and mixed
// knob sets run at once on one persistent fleet of TCP workers, and each
// must agree bit-for-bit with the simulator reference — the proof that
// job-keyed worker state isolates tenants across real wires, not just
// in-process channels.
func TestFleetTCPConcurrentJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a TCP fleet")
	}
	ctx := testCtx(t)
	addrs, join := startTCPWorkers(t, ctx, 4)
	defer join()

	fleet, err := OpenFleet(ctx, Config{Workers: addrs, MaxJobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	seams{probe: fastProbe}.set(fleet) // the relax job's rebinds ride it

	jobs := []struct {
		kernel string
		n      int
		cfg    Config
	}{
		{"matmul", 10, Config{PageElems: 8}},
		{"heat", 10, Config{PageElems: 8, Steal: true}},
		{"relax", 8, Config{PageElems: 8, Adapt: true}},
		{"triangular", 10, Config{PageElems: 8, Steal: true, CachePages: 2}},
	}

	type ref struct {
		prog  *isa.Program
		args  []isa.Value
		vals  map[string][]float64
		masks map[string][]bool
	}
	refs := make([]ref, len(jobs))
	for i, j := range jobs {
		k, prog := compileKernel(t, j.kernel)
		args := k.Args(j.n)
		vals, masks := simArraysMasked(t, prog, 4, k.Arrays, args...)
		refs[i] = ref{prog: prog, args: args, vals: vals, masks: masks}
	}

	var wg sync.WaitGroup
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = fleet.Submit(ctx, refs[i].prog, jobs[i].cfg, refs[i].args...)
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", j.kernel, errs[i])
		}
		checkAgainstSimMasked(t, results[i], refs[i].vals, refs[i].masks)
	}
}

// --- admission control ---

// TestResultValueOutlivesItsFrame: the driver releases every frame it
// handles, so the result value must be a copy of the KToken's, not a
// pointer into the frame: the next job's frames reuse it.
func TestResultValueOutlivesItsFrame(t *testing.T) {
	ctx := testCtx(t)
	prog := compile(t, "floor.id", `func main(n: int) -> int { return n + 1; }`)
	f, err := OpenFleet(ctx, Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	first, err := f.Submit(ctx, prog, Config{}, isa.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(ctx, prog, Config{}, isa.Int(2)); err != nil {
		t.Fatal(err)
	}
	if first.Value == nil || *first.Value != isa.Int(2) {
		t.Fatalf("the first job's result reads %v after the second job, want 2", first.Value)
	}
}

// TestFleetAdmissionCap pins the rejection contract deterministically: a
// fleet at its MaxJobs ceiling rejects the next Submit immediately with a
// diagnostic, and accepts again as soon as a slot frees. The occupied
// slots are injected directly so the test never races real job lifetimes.
func TestFleetAdmissionCap(t *testing.T) {
	ctx := testCtx(t)
	fleet, err := OpenFleet(ctx, Config{NumPEs: 2, MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	fleet.mu.Lock()
	for i := 0; i < 2; i++ {
		id := fleet.allocJobIDLocked()
		fleet.jobs[id] = newMailbox()
	}
	fleet.mu.Unlock()

	k, prog := compileKernel(t, "matmul")
	_, err = fleet.Submit(ctx, prog, Config{PageElems: 8}, k.Args(6)...)
	if err == nil {
		t.Fatal("submit to a full fleet succeeded; want rejection")
	}
	if !strings.Contains(err.Error(), "job rejected") {
		t.Fatalf("rejection error %q does not name the admission cap", err)
	}

	// Free one slot: the same submission must now run to completion.
	fleet.mu.Lock()
	for id := range fleet.jobs {
		delete(fleet.jobs, id)
		break
	}
	fleet.mu.Unlock()
	res, err := fleet.Submit(ctx, prog, Config{PageElems: 8}, k.Args(6)...)
	if err != nil {
		t.Fatalf("submit after a slot freed: %v", err)
	}
	vals, masks := simArraysMasked(t, prog, 2, k.Arrays, k.Args(6)...)
	checkAgainstSimMasked(t, res, vals, masks)

	fleet.mu.Lock()
	for id := range fleet.jobs {
		delete(fleet.jobs, id) // drop the remaining fake so Close is clean
	}
	fleet.mu.Unlock()
}

// --- job-server protocol round trip ---

// TestServeJobsRoundTrip drives the framed submit protocol end to end
// against a live fleet: a client ships a serialized program over TCP,
// the server runs it as one fleet job and streams the arrays back, and
// the reassembled reply matches the simulator reference exactly.
func TestServeJobsRoundTrip(t *testing.T) {
	ctx := testCtx(t)
	fleet, err := OpenFleet(ctx, Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fleet.ServeJobs(ctx, ln)

	k, prog := compileKernel(t, "matmul")
	n := 10
	want, masks := simArraysMasked(t, prog, 4, k.Arrays, k.Args(n)...)

	reply, err := SubmitJob(ctx, ln.Addr().String(), prog, Config{PageElems: 8}, k.Args(n)...)
	if err != nil {
		t.Fatal(err)
	}
	for name, ref := range want {
		a, err := reply.Array(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Vals) != len(ref) {
			t.Fatalf("%s: %d elements streamed, want %d", name, len(a.Vals), len(ref))
		}
		for i := range ref {
			if a.Mask[i] != masks[name][i] {
				t.Fatalf("%s[%d]: written=%v in the streamed reply, want %v", name, i, a.Mask[i], masks[name][i])
			}
			if a.Vals[i] != ref[i] {
				t.Fatalf("%s[%d] = %v, want %v (server reply disagrees with sim)",
					name, i, a.Vals[i], ref[i])
			}
		}
	}
}

// TestServeJobsSlowClient: the reply is streamed against the client's
// pace. A client that reads nothing for longer than any flush bound in
// the transport, with a reply several times what the socket buffers hold,
// still receives every element: the server blocks on the socket instead of
// queueing the reply or cutting it off.
func TestServeJobsSlowClient(t *testing.T) {
	if testing.Short() {
		t.Skip("stalls for over two seconds")
	}
	t.Parallel() // beside the CPU-bound tests
	ctx := testCtx(t)
	fleet, err := OpenFleet(ctx, Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fleet.ServeJobs(ctx, ln)

	prog := compile(t, "fill.id", `
func main(n: int) {
	A = array(n);
	for i = 1 to n {
		A[i] = 1.0;
	}
}`)
	wire, err := isa.MarshalPods(prog)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2 << 20 // a 20 MiB reply
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &Msg{Kind: KSubmit, Seq: 1, Args: []isa.Value{isa.Int(n)}, Cfg: &MsgCfg{Prog: wire}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(closeFlushWait + 250*time.Millisecond)
	got := 0
	for fr := newFrameReader(conn); ; {
		m, err := fr.next()
		if err != nil {
			t.Fatalf("after %d of %d elements: %v", got, n, err)
		}
		if m.Kind == KResult {
			break
		}
		if m.Kind != KDump {
			t.Fatalf("unexpected %v frame: %s", m.Kind, m.Name)
		}
		for _, set := range m.Set {
			if set {
				got++
			}
		}
	}
	if got != n {
		t.Fatalf("%d of %d elements reached the slow client", got, n)
	}
}

// TestServeJobsServerBudgetCap: the server clamps every tenant's budget
// to its own cap — a client asking for unlimited elements on a capped
// server is rejected with the budget diagnostic, streamed back as a
// failure frame rather than a hang or a dropped connection.
func TestServeJobsServerBudgetCap(t *testing.T) {
	ctx := testCtx(t)
	fleet, err := OpenFleet(ctx, Config{NumPEs: 2, MaxElems: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fleet.ServeJobs(ctx, ln)

	k, prog := compileKernel(t, "matmul")
	_, err = SubmitJob(ctx, ln.Addr().String(), prog, Config{PageElems: 8}, k.Args(6)...)
	if err == nil {
		t.Fatal("over-budget job succeeded on a capped server")
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("capped server failed with %q; want the element-budget diagnostic", err)
	}
}

// TestFleetBudgetCapsEveryJob: the fleet's budget caps bound every job,
// not only those that arrive through ServeJobs, so a job submitted with no
// budget of its own (as podsd's HTTP /jobs submits one) is capped too.
func TestFleetBudgetCapsEveryJob(t *testing.T) {
	ctx := testCtx(t)
	fleet, err := OpenFleet(ctx, Config{NumPEs: 2, MaxInstrs: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	k, prog := compileKernel(t, "matmul")
	_, err = fleet.Submit(ctx, prog, Config{}, k.Args(6)...)
	if err == nil || !strings.Contains(err.Error(), "instruction budget") {
		t.Fatalf("%v; want the fleet's instruction budget to stop the job", err)
	}
}

// TestClampBudget pins the budget-merge table: zero is unlimited on both
// sides, the effective budget is the tighter of the two, and a negative
// client request degrades to unlimited-within-cap rather than wrapping.
func TestClampBudget(t *testing.T) {
	cases := []struct{ client, server, want int64 }{
		{0, 0, 0},  // both unlimited
		{5, 0, 5},  // client tightens an unlimited server
		{0, 7, 7},  // server cap applies to an unlimited client
		{5, 7, 5},  // client under the cap keeps its ask
		{9, 7, 7},  // client over the cap is clamped
		{-3, 0, 0}, // nonsense request, unlimited server
		{-3, 7, 7}, // nonsense request degrades to the cap
	}
	for _, c := range cases {
		if got := clampBudget(c.client, c.server); got != c.want {
			t.Errorf("clampBudget(%d, %d) = %d, want %d", c.client, c.server, got, c.want)
		}
	}
}

// TestServeJobsRejectsHostilePrograms: a submitted .pods is untrusted
// input, and isa.Validate is the only thing between it and the decoded
// interpreter loop. Each malformation below used to pass validation (the
// out-of-range loop slot then killed the worker — and with it the whole job
// server — with an index-out-of-range panic under Adapt); now each must come
// back as a failure frame naming the template and pc, with the server still
// answering the next job. The submitted knobs are untrusted too: a trace
// ring the client sizes would be allocated on every PE.
func TestServeJobsRejectsHostilePrograms(t *testing.T) {
	ctx := testCtx(t)
	fleet, err := OpenFleet(ctx, Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fleet.ServeJobs(ctx, ln)

	k, good := compileKernel(t, "relax")
	// find returns the first (template, pc) of the fresh program whose
	// instruction satisfies pred.
	find := func(p *isa.Program, pred func(*isa.Template, *isa.Instr) bool) (*isa.Template, int) {
		for _, tm := range p.Templates {
			for pc := range tm.Code {
				if pred(tm, &tm.Code[pc]) {
					return tm, pc
				}
			}
		}
		t.Fatal("relax has no instruction of the wanted shape")
		return nil, 0
	}
	isOp := func(op isa.Opcode) func(*isa.Template, *isa.Instr) bool {
		return func(_ *isa.Template, in *isa.Instr) bool { return in.Op == op }
	}
	distributed := func(tm *isa.Template, _ *isa.Instr) bool { return tm.Distributed && tm.Loop != nil }
	// at is the rejection text naming template tm and, unless pc < 0, pc.
	at := func(tm *isa.Template, pc int) string {
		if pc < 0 {
			return fmt.Sprintf("template %q", tm.Name)
		}
		return fmt.Sprintf("template %q pc %d:", tm.Name, pc)
	}

	cases := []struct {
		name   string
		mutate func(p *isa.Program, cfg *Config) (want string) // the rejection must contain want
	}{
		{"loop variable slot out of range", func(p *isa.Program, _ *Config) string {
			tm, _ := find(p, distributed)
			tm.Loop.VarSlot = 1 << 20
			return at(tm, -1)
		}},
		{"loop limit slot out of range", func(p *isa.Program, _ *Config) string {
			tm, _ := find(p, distributed)
			tm.Loop.LimitSlot = -7
			return at(tm, -1)
		}},
		{"branch to one past the end", func(p *isa.Program, _ *Config) string {
			tm, pc := find(p, isOp(isa.BRFALSE))
			tm.Code[pc].Target = len(tm.Code)
			return at(tm, pc)
		}},
		{"empty template", func(p *isa.Program, _ *Config) string {
			tm, _ := find(p, distributed)
			tm.Code = nil
			return at(tm, -1)
		}},
		{"code runs off the end", func(p *isa.Program, _ *Config) string {
			tm, _ := find(p, distributed)
			tm.Code[len(tm.Code)-1] = isa.NewInstr(isa.NOP)
			return at(tm, len(tm.Code)-1)
		}},
		{"read without indices", func(p *isa.Program, _ *Config) string {
			tm, pc := find(p, isOp(isa.AREAD))
			tm.Code[pc].Args = nil
			return at(tm, pc)
		}},
		{"write with three indices", func(p *isa.Program, _ *Config) string {
			tm, pc := find(p, isOp(isa.AWRITE))
			a := tm.Code[pc].Args
			tm.Code[pc].Args = []int{a[0], a[0], a[0]}
			return at(tm, pc)
		}},
		{"constant without a kind", func(p *isa.Program, _ *Config) string {
			tm, pc := find(p, isOp(isa.CONST))
			tm.Code[pc].Imm = isa.Value{}
			return at(tm, pc)
		}},
		{"absent index slot", func(p *isa.Program, _ *Config) string {
			tm, pc := find(p, isOp(isa.AREAD))
			tm.Code[pc].Args = []int{isa.None}
			return at(tm, pc)
		}},
		{"scalar op without its operand", func(p *isa.Program, _ *Config) string {
			tm, pc := find(p, isOp(isa.IADD))
			tm.Code[pc].A = isa.None
			return at(tm, pc)
		}},
		{"null template entry", func(p *isa.Program, _ *Config) string {
			p.Templates = append(p.Templates, nil)
			return fmt.Sprintf("template %d is nil", len(p.Templates)-1)
		}},
		{"template ID that is not its index", func(p *isa.Program, _ *Config) string {
			tm, _ := find(p, distributed)
			tm.ID = len(p.Templates)
			return at(tm, -1)
		}},
		{"trace ring of 2^31-1 events on every PE", func(_ *isa.Program, cfg *Config) string {
			cfg.Trace, cfg.TraceCap = true, math.MaxInt32
			return "trace bound out of range"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, prog := compileKernel(t, "relax")
			cfg := Config{PageElems: 8, Adapt: true}
			want := tc.mutate(prog, &cfg)
			// The .pods envelope, written by hand: MarshalPods would refuse.
			wire, err := json.Marshal(struct {
				Version int          `json:"version"`
				Program *isa.Program `json:"program"`
			}{1, prog})
			if err != nil {
				t.Fatal(err)
			}
			_, err = submitWire(ctx, ln.Addr().String(), wire, cfg, k.Args(8))
			if err == nil {
				t.Fatal("the server ran a malformed job")
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("rejected with %q; want the error to name %s", err, want)
			}
			// The server (and every worker behind it) is still up.
			if _, err := SubmitJob(ctx, ln.Addr().String(), good, Config{PageElems: 8, Adapt: true}, k.Args(8)...); err != nil {
				t.Fatalf("the next job failed: %v", err)
			}
		})
	}
}
