package cluster

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/istructure"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// taskProgram builds a minimal hand-assembled program for the white-box
// steal tests: template 0 ("task", the entry) takes a continuation SP
// reference and a float; it blocks on a token slot, adds it to its
// argument, sends the sum to the continuation, and halts.
func taskProgram() *isa.Program {
	add := isa.NewInstr(isa.FADD)
	add.Dst, add.A, add.B = 3, 1, 2
	snd := isa.NewInstr(isa.SEND)
	snd.A, snd.B = 0, 3
	snd.Imm = isa.Int(0)
	return &isa.Program{
		EntryID: 0,
		Templates: []*isa.Template{{
			ID:      0,
			Name:    "task",
			Kind:    isa.TmplMain,
			NParams: 2,
			NSlots:  4,
			Code:    []isa.Instr{add, snd, isa.NewInstr(isa.HALT)},
		}},
	}
}

// simArraysMasked runs the simulator as the reference backend, returning
// values and written-masks (kernels like triangular legitimately leave
// elements unwritten, which plain simArrays rejects).
func simArraysMasked(t *testing.T, prog *isa.Program, pes int, names []string,
	args ...isa.Value) (map[string][]float64, map[string][]bool) {
	t.Helper()
	m, err := sim.New(prog, sim.Config{NumPEs: pes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(args...); err != nil {
		t.Fatal(err)
	}
	vals := make(map[string][]float64)
	masks := make(map[string][]bool)
	for _, name := range names {
		v, mask, _, err := m.ReadArray(name)
		if err != nil {
			t.Fatal(err)
		}
		vals[name], masks[name] = v, mask
	}
	return vals, masks
}

// checkAgainstSimMasked asserts a cluster result agrees bit-for-bit with
// the simulator on both values and written-masks.
func checkAgainstSimMasked(t *testing.T, res *Result, wantVals map[string][]float64, wantMasks map[string][]bool) {
	t.Helper()
	for name := range wantVals {
		vals, mask, _, err := res.ReadArray(name)
		if err != nil {
			t.Fatal(err)
		}
		checkArray(t, name, vals, mask, wantVals[name], wantMasks[name])
	}
}

// checkArray compares one assembled array with the simulator's, values and
// written-mask both.
func checkArray(t *testing.T, name string, vals []float64, mask []bool, wantVals []float64, wantMask []bool) {
	t.Helper()
	if len(vals) != len(wantVals) {
		t.Fatalf("%s: %d elements, want %d", name, len(vals), len(wantVals))
	}
	for i := range wantVals {
		if mask[i] != wantMask[i] {
			t.Fatalf("%s[%d]: written=%v, want %v", name, i, mask[i], wantMask[i])
		}
		if mask[i] && vals[i] != wantVals[i] {
			t.Fatalf("%s[%d] = %v, want %v (cluster disagrees with sim)", name, i, vals[i], wantVals[i])
		}
	}
}

// drainOnly delivers a worker's pending messages without running its
// ready SPs, so a test controls exactly when instances start executing.
// It reports whether any message was delivered.
func drainOnly(w *worker) bool {
	got := false
	for {
		m, ok := w.ep.in.tryRecv()
		if !ok {
			return got
		}
		w.handle(m)
		got = true
	}
}

// pumpWorker drains one worker's mailbox and runs its ready SPs to
// quiescence, single-threaded and deterministic.
func pumpWorker(w *worker) bool {
	progress := false
	for {
		stepped := drainOnly(w)
		for w.readyHead != len(w.ready) {
			w.step()
			stepped = true
		}
		if !stepped {
			return progress
		}
		progress = true
	}
}

// TestStealProtocolGrantForwardLateToken walks the whole steal protocol
// deterministically, with no goroutines: a victim grants its oldest
// not-yet-started SP, tokens for the stolen SP's home ID are relayed
// through the forwarding stub, a token trailing the stolen SP's HALT is
// dropped, a token for a genuinely unknown SP still fails the run, and the
// sent/recv counters balance at quiescence (termination soundness).
func TestStealProtocolGrantForwardLateToken(t *testing.T) {
	prog := taskProgram()
	eps := newChanTransport(2, 0)
	cfg := &Config{NumPEs: 2, PageElems: 8, Steal: true}
	w0 := newWorker(0, cfg, prog, eps[0])
	w1 := newWorker(1, cfg, prog, eps[1])
	driver := eps[2]
	pump := func() {
		for pumpWorker(w0) || pumpWorker(w1) {
		}
	}

	// Two task SPs spawned on PE 0, delivered but not yet run: both sit
	// in the ready queue at pc 0.
	for i := 0; i < 2; i++ {
		if err := driver.Send(0, &Msg{Kind: KSpawn, Tmpl: 0,
			Args: []isa.Value{isa.SPRef(0), isa.Float(float64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	drainOnly(w0)
	id1, id2 := packID(0, 1), packID(0, 2)
	if len(w0.insts) != 2 {
		t.Fatalf("PE 0 has %d live SPs, want 2", len(w0.insts))
	}

	// PE 1 is idle: its first steal attempt targets PE 0 and must be
	// granted the oldest instance.
	w1.maybeSteal()
	drainOnly(w0)
	drainOnly(w1)
	if w1.steal.steals != 1 || w1.insts[id1] == nil {
		t.Fatalf("steals=%d insts[id1]=%v, want the first SP stolen to PE 1", w1.steal.steals, w1.insts[id1])
	}
	if to, ok := w0.steal.forwards[id1]; !ok || to != 1 {
		t.Fatalf("victim forwarding stub = (%d, %v), want (1, true)", to, ok)
	}
	if w0.insts[id1] != nil {
		t.Fatal("victim still owns the stolen SP")
	}

	// A token addressed to the stolen SP's home ID arrives at the victim:
	// it must be relayed to the thief, wake the SP there, and produce the
	// result at the driver.
	if err := driver.Send(0, &Msg{Kind: KToken, SP: id1, Slot: 2, Val: isa.Float(2.5)}); err != nil {
		t.Fatal(err)
	}
	pump()
	if w0.steal.forwarded != 1 {
		t.Fatalf("victim forwarded %d tokens, want 1", w0.steal.forwarded)
	}
	m, ok := driver.in.tryRecv()
	if !ok || m.Kind != KToken || m.Val.F != 2.5 {
		t.Fatalf("driver got %+v, want the stolen SP's result token 0+2.5", m)
	}
	if w1.insts[id1] != nil {
		t.Fatal("stolen SP still live after HALT")
	}

	// A second token trailing the stolen SP's HALT takes the same stub
	// path and must be dropped by the thief, not fail the run.
	if err := driver.Send(0, &Msg{Kind: KToken, SP: id1, Slot: 2, Val: isa.Float(9)}); err != nil {
		t.Fatal(err)
	}
	pump()
	if w1.steal.lateTokens != 1 || w1.failed || w0.failed {
		t.Fatalf("late token: lateTokens=%d failed=%v/%v, want 1 drop and no failure",
			w1.steal.lateTokens, w0.failed, w1.failed)
	}

	// Unblock the remaining home SP so the cluster quiesces, then check
	// the four-counter invariant: every counted send was received.
	if err := driver.Send(0, &Msg{Kind: KToken, SP: id2, Slot: 2, Val: isa.Float(1)}); err != nil {
		t.Fatal(err)
	}
	pump()
	if _, ok := driver.in.tryRecv(); !ok {
		t.Fatal("home SP produced no result")
	}
	if w0.sent+w1.sent != w0.recv+w1.recv {
		t.Fatalf("counters unbalanced at quiescence: sent %d+%d, recv %d+%d",
			w0.sent, w1.sent, w0.recv, w1.recv)
	}

	// A token for an ID no worker has ever seen is still a hard failure.
	if err := driver.Send(1, &Msg{Kind: KToken, SP: packID(1, 99), Slot: 2, Val: isa.Float(0)}); err != nil {
		t.Fatal(err)
	}
	pump()
	if !w1.failed {
		t.Fatal("token for unknown SP did not fail the worker")
	}
}

// TestStealBackClearsStaleStub is the regression test for the stub-cycle
// bug: when a worker re-acquires an SP it had granted away, its own stale
// forwarding stub must be cleared at install time — otherwise, once the SP
// halts, a late token would relay home→thief→home forever (each hop counts
// in sent/recv, so the run would also never terminate).
func TestStealBackClearsStaleStub(t *testing.T) {
	prog := taskProgram()
	eps := newChanTransport(2, 0)
	cfg := &Config{NumPEs: 2, PageElems: 8, Steal: true}
	w0 := newWorker(0, cfg, prog, eps[0])
	w1 := newWorker(1, cfg, prog, eps[1])
	driver := eps[2]

	// PE 0 holds two unstarted SPs; PE 1 steals the oldest (id1).
	for i := 0; i < 2; i++ {
		if err := driver.Send(0, &Msg{Kind: KSpawn, Tmpl: 0,
			Args: []isa.Value{isa.SPRef(0), isa.Float(0)}}); err != nil {
			t.Fatal(err)
		}
	}
	drainOnly(w0)
	id1 := packID(0, 1)
	w1.maybeSteal()
	drainOnly(w0)
	drainOnly(w1)
	if w1.insts[id1] == nil {
		t.Fatal("first steal did not move id1 to PE 1")
	}

	// Load PE 1 with a second unstarted SP, then let PE 0 steal id1 back.
	if err := driver.Send(1, &Msg{Kind: KSpawn, Tmpl: 0,
		Args: []isa.Value{isa.SPRef(0), isa.Float(0)}}); err != nil {
		t.Fatal(err)
	}
	drainOnly(w1)
	w0.maybeSteal()
	drainOnly(w1)
	drainOnly(w0)
	if w0.insts[id1] == nil {
		t.Fatal("steal-back did not return id1 to PE 0")
	}
	if _, stale := w0.steal.forwards[id1]; stale {
		t.Fatal("steal-back left PE 0's stale forwarding stub in place (token relay cycle)")
	}
	if to, ok := w1.steal.forwards[id1]; !ok || to != 0 {
		t.Fatalf("PE 1 stub = (%d, %v), want (0, true)", to, ok)
	}

	// Run everything down, then push a late token through PE 1's stub: it
	// must come home and be dropped, not orbit.
	pump := func() {
		for pumpWorker(w0) || pumpWorker(w1) {
		}
	}
	for _, id := range []int64{id1, packID(0, 2), packID(1, 1)} {
		if err := driver.Send(peOf(id), &Msg{Kind: KToken, SP: id, Slot: 2, Val: isa.Float(1)}); err != nil {
			t.Fatal(err)
		}
	}
	pump()
	if err := driver.Send(1, &Msg{Kind: KToken, SP: id1, Slot: 2, Val: isa.Float(9)}); err != nil {
		t.Fatal(err)
	}
	pump()
	if w0.steal.lateTokens != 1 || w0.failed || w1.failed {
		t.Fatalf("late token through stub chain: lateTokens=%d failed=%v/%v, want 1/false/false",
			w0.steal.lateTokens, w0.failed, w1.failed)
	}
}

// TestStealDeclinedWhenUnloaded pins the victim policy: a victim with one
// (or zero) queued SPs answers KStealNone and the thief's backoff grows.
func TestStealDeclinedWhenUnloaded(t *testing.T) {
	prog := taskProgram()
	eps := newChanTransport(2, 0)
	cfg := &Config{NumPEs: 2, PageElems: 8, Steal: true}
	w0 := newWorker(0, cfg, prog, eps[0])
	w1 := newWorker(1, cfg, prog, eps[1])
	driver := eps[2]
	pump := func() {
		for pumpWorker(w0) || pumpWorker(w1) {
		}
	}

	// One blocked SP on PE 0: stealing it would leave the victim empty.
	if err := driver.Send(0, &Msg{Kind: KSpawn, Tmpl: 0,
		Args: []isa.Value{isa.SPRef(0), isa.Float(0)}}); err != nil {
		t.Fatal(err)
	}
	pump()
	w1.maybeSteal()
	pump()
	if w1.steal.steals != 0 || w1.steal.fails != 1 || w1.steal.wait != 1 {
		t.Fatalf("after decline: steals=%d fails=%d wait=%d, want 0/1/1",
			w1.steal.steals, w1.steal.fails, w1.steal.wait)
	}
	// The next idle wake-up only pays down the backoff; no request goes
	// out until it reaches zero.
	w1.maybeSteal()
	pump()
	if w1.steal.fails != 1 || w1.steal.wait != 0 || w1.steal.steals != 0 {
		t.Fatalf("backoff wake-up: fails=%d wait=%d steals=%d, want 1/0/0",
			w1.steal.fails, w1.steal.wait, w1.steal.steals)
	}
	// Repeated declines reach dormancy (2 sweeps of the single peer);
	// after that, no further requests are sent.
	for i := 0; i < 16; i++ {
		w1.maybeSteal()
		pump()
	}
	if w1.steal.fails < w1.stealDormantAfter() {
		t.Fatalf("fails=%d, want dormancy at %d", w1.steal.fails, w1.stealDormantAfter())
	}
	w1.maybeSteal()
	if w1.steal.outstanding {
		t.Fatal("dormant worker still sent a steal request")
	}

	// Dormancy is not forever: after stealReviveProbes probe rounds the
	// backoff resets, so skew that arrives late in the run still gets
	// stolen eventually.
	for i := 0; i < stealReviveProbes; i++ {
		w1.handle(&Msg{Kind: KProbe, Round: int32(i + 1), From: int32(w1.driverID())})
	}
	if w1.steal.fails != 0 {
		t.Fatalf("fails=%d after %d probe rounds, want dormancy revived", w1.steal.fails, stealReviveProbes)
	}
	w1.maybeSteal()
	if !w1.steal.outstanding {
		t.Fatal("revived worker sent no steal request")
	}
	pump()
}

// stepOneRound gives every worker one drain plus at most one step — a
// deterministic stand-in for N PEs progressing in parallel.
func stepOneRound(ws []*worker) bool {
	progress := false
	for _, w := range ws {
		progress = drainOnly(w) || progress
		if w.readyHead != len(w.ready) {
			w.step()
			progress = true
		} else if w.steal != nil {
			before := w.steal.outstanding
			w.maybeSteal()
			progress = progress || (w.steal.outstanding && !before)
		}
	}
	return progress
}

// TestStealDeterminacyPumpedTriangular pins what work stealing buys on the
// skewed triangular kernel (row i costs O(i²), so the static split leaves
// the last PE's block dominant): n=96 on eight hand-pumped workers, a
// deterministic, adversarially fair schedule. Steal off, the makespan is
// 517,249 instructions at utilization 0.388; steal on, 47 steals bring it
// to 275,369 at 0.729. Both arms repeat exactly on a second run and gather
// arrays bit-for-bit the simulator's (Church-Rosser under migration).
func TestStealDeterminacyPumpedTriangular(t *testing.T) {
	k, _ := kernels.ByName("triangular")
	const n, pes = 96, 8
	wantVals, wantMasks := simArraysMasked(t, compile(t, k.File(), k.Source), pes, k.Arrays, k.Args(n)...)
	type stats struct {
		makespan int64
		util     float64
		steals   int64
	}
	run := func(steal bool) stats {
		ws, arrays := pumpedRun(t, k, n, pes, Config{Steal: steal}, nil, nil)
		checkGathered(t, arrays, wantVals, wantMasks)
		var st stats
		st.makespan, st.util = makespan(ws)
		for _, w := range ws {
			st.steals += w.counters().Steals
		}
		return st
	}
	for _, tc := range []struct {
		steal bool
		want  stats
	}{
		{false, stats{517_249, 0.388, 0}},
		{true, stats{275_369, 0.729, 47}},
	} {
		pinTwice(t, fmt.Sprintf("steal=%v", tc.steal), tc.want, func() stats { return run(tc.steal) })
	}
}

// kernelsAgreeWithSim runs every kernel at 1, 2, 4 and 8 PEs under each
// config (NumPEs and PageElems are set here) and compares the cluster's
// arrays bit-for-bit against the simulator.
func kernelsAgreeWithSim(t *testing.T, cfgs ...Config) {
	const n = 8
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			prog := compile(t, k.File(), k.Source)
			wantVals, wantMasks := simArraysMasked(t, prog, 4, k.Arrays, k.Args(n)...)
			for _, pes := range []int{1, 2, 4, 8} {
				for _, cfg := range cfgs {
					cfg.NumPEs, cfg.PageElems = pes, 8
					res, err := Execute(testCtx(t), prog, cfg, k.Args(n)...)
					if err != nil {
						t.Fatalf("%d PEs %+v: %v", pes, cfg, err)
					}
					checkAgainstSimMasked(t, res, wantVals, wantMasks)
				}
			}
		})
	}
}

// TestClusterDeterminacyDefaultKnob: the static scheduler (every knob at
// its default) agrees with the simulator on every kernel.
func TestClusterDeterminacyDefaultKnob(t *testing.T) { kernelsAgreeWithSim(t, Config{}) }

// TestStealKeepsKernelsDeterminate: migration with stealing on is never
// observable in the results.
func TestStealKeepsKernelsDeterminate(t *testing.T) { kernelsAgreeWithSim(t, Config{Steal: true}) }

// TestEvictionKeepsKernelsDeterminate: with a two-page cache cap,
// evictions and refetches mid-run are not observable, alone or combined
// with stealing and adaptation.
func TestEvictionKeepsKernelsDeterminate(t *testing.T) {
	kernelsAgreeWithSim(t, Config{CachePages: 2}, Config{CachePages: 2, Steal: true, Adapt: true})
}

// TestStealGrantBatchHalfOldestFirst pins the batched victim policy: a
// victim with k stealable SPs grants ⌈k/2⌉ in one KStealGrant, and with no
// locality signal the batch is the oldest not-yet-started SPs in age order.
func TestStealGrantBatchHalfOldestFirst(t *testing.T) {
	prog := taskProgram()
	eps := newChanTransport(2, 0)
	cfg := &Config{NumPEs: 2, PageElems: 8, Steal: true}
	w0 := newWorker(0, cfg, prog, eps[0])
	w1 := newWorker(1, cfg, prog, eps[1])
	driver := eps[2]
	for i := 0; i < 5; i++ {
		if err := driver.Send(0, &Msg{Kind: KSpawn, Tmpl: 0,
			Args: []isa.Value{isa.SPRef(0), isa.Float(float64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	drainOnly(w0)

	w1.maybeSteal()
	if m, ok := eps[0].in.tryRecv(); ok {
		w0.handle(m)
	} else {
		t.Fatal("no steal request reached the victim")
	}
	grant, ok := eps[1].in.tryRecv()
	if !ok || grant.Kind != KStealGrant {
		t.Fatalf("thief got %+v, want a grant", grant)
	}
	if len(grant.Lists.Batch) != 3 {
		t.Fatalf("grant batch of %d SPs, want 3 (⌈5/2⌉)", len(grant.Lists.Batch))
	}
	for i, it := range grant.Lists.Batch {
		if want := packID(0, int64(i+1)); it.SP != want {
			t.Errorf("batch[%d] = SP %d, want %d (oldest first)", i, it.SP, want)
		}
		if _, stub := w0.steal.forwards[it.SP]; !stub {
			t.Errorf("no forwarding stub for granted SP %d", it.SP)
		}
		if w0.insts[it.SP] != nil {
			t.Errorf("victim still owns granted SP %d", it.SP)
		}
	}
	w1.handle(grant)
	if w1.steal.steals != 3 || len(w1.insts) != 3 {
		t.Fatalf("thief installed %d SPs (%d steals), want 3", len(w1.insts), w1.steal.steals)
	}
}

// TestStealLocalityPreference: the victim prefers granting SPs whose
// operand rows lie on the thief's hot pages, oldest first within equal
// locality. All three candidates read the same array, so only the page
// holding each one's row tells them apart.
func TestStealLocalityPreference(t *testing.T) {
	prog := taskProgram()
	eps := newChanTransport(2, 0)
	cfg := &Config{NumPEs: 2, PageElems: 8, Steal: true}
	w0 := newWorker(0, cfg, prog, eps[0])
	// Array 77 is 3×8: row r lives on page r-1.
	h, err := istructure.NewHeader(77, "X", []int{3, 8}, 8, 2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.shard.Install(h); err != nil {
		t.Fatal(err)
	}
	// Three unstarted SPs, each framing (Array(77), Int(r)) for rows 1–3.
	for r := int64(1); r <= 3; r++ {
		if err := eps[2].Send(0, &Msg{Kind: KSpawn, Tmpl: 0,
			Args: []isa.Value{isa.Array(77), isa.Int(r)}}); err != nil {
			t.Fatal(err)
		}
	}
	drainOnly(w0)
	// The thief holds the page of row 2.
	w0.handle(&Msg{Kind: KStealReq, From: 1, Lists: &MsgLists{HotPages: []int64{77, 1}}})
	grant, ok := eps[1].in.tryRecv()
	if !ok || grant.Kind != KStealGrant {
		t.Fatalf("got %+v, want a grant", grant)
	}
	if len(grant.Lists.Batch) != 2 {
		t.Fatalf("batch of %d, want 2 (⌈3/2⌉)", len(grant.Lists.Batch))
	}
	if grant.Lists.Batch[0].SP != packID(0, 2) {
		t.Errorf("batch[0] = SP %d, want %d (the hot-row SP preferred over older cold ones)",
			grant.Lists.Batch[0].SP, packID(0, 2))
	}
	if grant.Lists.Batch[1].SP != packID(0, 1) {
		t.Errorf("batch[1] = SP %d, want %d (oldest of the cold SPs)",
			grant.Lists.Batch[1].SP, packID(0, 1))
	}
}

// TestStealMidDequeGrantNoShift is the regression test for the O(n) copy
// in the old popStealable: granting around an in-flight entry must leave a
// tombstone instead of shifting the tail, and the skipped entry must stay
// where it was.
func TestStealMidDequeGrantNoShift(t *testing.T) {
	prog := taskProgram()
	eps := newChanTransport(2, 0)
	cfg := &Config{NumPEs: 2, PageElems: 8, Steal: true}
	w0 := newWorker(0, cfg, prog, eps[0])
	for i := 0; i < 3; i++ {
		if err := eps[2].Send(0, &Msg{Kind: KSpawn, Tmpl: 0,
			Args: []isa.Value{isa.SPRef(0), isa.Float(0)}}); err != nil {
			t.Fatal(err)
		}
	}
	drainOnly(w0)
	// Mark the bottom SP as started (in flight): it is pinned, so the
	// grant must skip it and take the next-oldest.
	started, third := w0.ready[0], w0.ready[2]
	started.pc = 1
	batch := w0.stealBatch(nil)
	if len(batch) != 1 || batch[0].id != packID(0, 2) {
		t.Fatalf("batch = %v, want exactly the second SP", batch)
	}
	if w0.ready[0] != started || w0.ready[1] != nil || w0.ready[2] != third {
		t.Fatalf("grant shifted the deque: %v", w0.ready)
	}
	if w0.readyNil != 1 {
		t.Fatalf("readyNil = %d, want 1 tombstone", w0.readyNil)
	}
}

// TestReadyDequeBoundedGrowth is the regression test for the unbounded
// nil prefix: on a run whose queue never drains, steady enqueue-at-top /
// steal-from-bottom traffic must not grow the backing slice without bound
// — the dead prefix and tombstones are compacted once they exceed half
// the slice.
func TestReadyDequeBoundedGrowth(t *testing.T) {
	prog := taskProgram()
	eps := newChanTransport(2, 0)
	cfg := &Config{NumPEs: 2, PageElems: 8, Steal: true}
	w0 := newWorker(0, cfg, prog, eps[0])
	spawn := func() {
		if err := eps[2].Send(0, &Msg{Kind: KSpawn, Tmpl: 0,
			Args: []isa.Value{isa.SPRef(0), isa.Float(0)}}); err != nil {
			t.Fatal(err)
		}
		m, ok := eps[0].in.tryRecv()
		if !ok {
			t.Fatal("spawn not delivered")
		}
		w0.handle(m)
	}
	spawn()
	for round := 0; round < 10_000; round++ {
		spawn() // two live SPs queued, never fully drained
		if got := w0.stealBatch(nil); len(got) != 1 {
			t.Fatalf("round %d: stole %d SPs, want 1", round, len(got))
		}
		if dead := w0.readyHead + w0.readyNil; dead > len(w0.ready) {
			t.Fatalf("round %d: dead count %d exceeds deque length %d", round, dead, len(w0.ready))
		}
		if len(w0.ready) > 8 {
			t.Fatalf("round %d: deque grew to %d entries for 2 live SPs (prefix never reclaimed)",
				round, len(w0.ready))
		}
	}
}

// TestDumpBoundsChecked is the regression test for the driver-side KDump
// handler: a malformed frame whose segment does not fit the assembled
// array must produce an error, not a panic.
func TestDumpBoundsChecked(t *testing.T) {
	h, err := istructure.NewHeader(7, "A", []int{2, 4}, 8, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	g := &gathered{h: h, vals: make([]float64, 8), mask: make([]bool, 8)}

	good := &Msg{Kind: KDump, Arr: 7, Off: 4,
		Vals: []isa.Value{isa.Float(1), isa.Float(2)}, Set: []bool{true, true}}
	if err := mergeDump("A", g.vals, g.mask, roundTrip(t, good)); err != nil {
		t.Fatalf("in-bounds dump rejected: %v", err)
	}
	bad := []*Msg{
		{Kind: KDump, Arr: 7, Off: 7, Vals: []isa.Value{isa.Float(1), isa.Float(2)}, Set: []bool{true, true}},
		{Kind: KDump, Arr: 7, Off: -1, Vals: []isa.Value{isa.Float(1)}, Set: []bool{true}},
		{Kind: KDump, Arr: 7, Off: 0, Vals: make([]isa.Value, 9), Set: make([]bool, 9)},
		{Kind: KDump, Arr: 7, Off: 0, Vals: []isa.Value{isa.Float(1)}, Set: []bool{true, true}},
	}
	for i, m := range bad {
		if err := mergeDump("A", g.vals, g.mask, roundTrip(t, m)); err == nil {
			t.Errorf("malformed dump %d accepted (vals=%d set=%d off=%d)", i, len(m.Vals), len(m.Set), m.Off)
		}
	}
}

// TestSubmitRejectsBadDump is its client-side twin: a job server's KDump
// segment that does not fit its array, or dims that are negative or
// address more elements than int32 offsets can, fail the submit with an
// error instead of panicking the client. One fake server per bad frame.
func TestSubmitRejectsBadDump(t *testing.T) {
	bad := []*Msg{
		{Kind: KDump, Name: "A", Dims: []int32{4}, Off: -1, Vals: []isa.Value{isa.Float(1)}, Set: []bool{true}},
		{Kind: KDump, Name: "A", Dims: []int32{4}, Off: 3, Vals: make([]isa.Value, 2), Set: make([]bool, 2)},
		{Kind: KDump, Name: "A", Dims: []int32{4}, Vals: make([]isa.Value, 2), Set: make([]bool, 1)},
		{Kind: KDump, Name: "A", Dims: []int32{-4}},
		{Kind: KDump, Name: "A", Dims: []int32{1 << 16, 1 << 16}},
	}
	for i, m := range bad {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := newFrameReader(conn).next(); err == nil { // the KSubmit
				writeFrame(conn, m)
				writeFrame(conn, &Msg{Kind: KResult})
			}
		}()
		_, err = submitWire(testCtx(t), ln.Addr().String(), nil, Config{}, nil)
		ln.Close()
		if err == nil {
			t.Errorf("bad dump %d accepted (dims %v, off %d, %d vals, %d set)", i, m.Dims, m.Off, len(m.Vals), len(m.Set))
		}
	}
}

// roundTrip pushes a message through the wire codec so the regression test
// exercises the same path a corrupt TCP frame would take.
func roundTrip(t *testing.T, m *Msg) *Msg {
	t.Helper()
	out, err := decodeMsg(encodeMsg(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLatencyMailboxOrdering pins the latency-injection mechanics at the
// mailbox level: an undue message is invisible to tryRecv, recv waits it
// out, and per-pair FIFO survives the delay.
func TestLatencyMailboxOrdering(t *testing.T) {
	b := newDelayMailbox(20 * time.Millisecond)
	b.put(&Msg{Kind: KProbe, Round: 1})
	b.put(&Msg{Kind: KProbe, Round: 2})
	if _, ok, wait, _ := b.pop(); ok || wait <= 0 {
		t.Fatalf("undue message already receivable (ok=%v wait=%v)", ok, wait)
	}
	start := time.Now()
	for round := int32(1); round <= 2; round++ {
		m, err := b.recv(testCtx(t))
		if err != nil {
			t.Fatal(err)
		}
		if m.Round != round {
			t.Fatalf("got round %d, want %d (FIFO violated)", m.Round, round)
		}
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("messages delivered after %v, want ≥ the injected 20ms", elapsed)
	}
}

// TestLatencyInjectedRuns exercises the steal path (triangular, stealing
// on) and the deferred-remote-read path (mirror) under 0/1/5ms injected
// per-hop latency, asserting bit-for-bit agreement with the simulator at
// every latency.
func TestLatencyInjectedRuns(t *testing.T) {
	const n = 6
	for _, kn := range []string{"triangular", "mirror"} {
		k, _ := kernels.ByName(kn)
		prog := compile(t, k.File(), k.Source)
		wantVals, wantMasks := simArraysMasked(t, prog, 2, k.Arrays, k.Args(n)...)
		for _, lat := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
			res, err := Execute(testCtx(t), prog,
				Config{NumPEs: 2, PageElems: 8, Steal: kn == "triangular", Latency: lat}, k.Args(n)...)
			if err != nil {
				t.Fatalf("%s@%v: %v", kn, lat, err)
			}
			checkAgainstSimMasked(t, res, wantVals, wantMasks)
		}
	}
}
