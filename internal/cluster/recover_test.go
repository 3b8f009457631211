package cluster

import (
	"context"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// Tests for worker-failure recovery: the fault injector killing a PE
// mid-run, the incarnation fence in isolation, and TCP re-homing onto a
// spare worker.

// maskedRef is one reference array: values plus written-mask (kernels like
// triangular legitimately leave elements unwritten).
type maskedRef struct {
	vals []float64
	mask []bool
}

// simMaskedArrays runs the simulator as the reference backend, keeping the
// presence masks so partially-written arrays compare exactly.
func simMaskedArrays(t *testing.T, prog *isa.Program, pes int, names []string, args ...isa.Value) map[string]maskedRef {
	t.Helper()
	m, err := sim.New(prog, sim.Config{NumPEs: pes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(args...); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]maskedRef)
	for _, name := range names {
		vals, mask, _, err := m.ReadArray(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = maskedRef{vals: vals, mask: mask}
	}
	return out
}

// checkMasked diffs a cluster result against the masked reference bit for
// bit — values and presence both.
func checkMasked(t *testing.T, res *Result, want map[string]maskedRef) {
	t.Helper()
	for name, ref := range want {
		vals, mask, _, err := res.ReadArray(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(ref.vals) {
			t.Fatalf("%s: %d elements, want %d", name, len(vals), len(ref.vals))
		}
		for i := range vals {
			if mask[i] != ref.mask[i] {
				t.Fatalf("%s[%d]: written=%v, want %v", name, i, mask[i], ref.mask[i])
			}
			if ref.mask[i] && vals[i] != ref.vals[i] {
				t.Fatalf("%s[%d] = %v, want %v (recovered run diverged)", name, i, vals[i], ref.vals[i])
			}
		}
	}
}

// runKilled executes a kernel with PE killPE fault-injected after
// killAfter worker-to-worker frames and recovery enabled, then checks the
// arrays bit-for-bit against the simulator.
func runKilled(t *testing.T, k kernels.Kernel, n, pes, killPE int, killAfter int64, cfg Config) *Result {
	t.Helper()
	prog := compile(t, k.File(), k.Source)
	want := simMaskedArrays(t, prog, pes, k.Arrays, k.Args(n)...)
	cfg.NumPEs = pes
	cfg.Recover = true
	cfg.KillPE = killPE
	cfg.KillAfter = killAfter
	res, err := Execute(testCtx(t), prog, cfg, k.Args(n)...)
	if err != nil {
		t.Fatalf("killed run (pes=%d kill=%d after=%d): %v", pes, killPE, killAfter, err)
	}
	checkMasked(t, res, want)
	return res
}

func TestRecoverKillMidRun(t *testing.T) {
	k, _ := kernels.ByName("heat")
	for _, pes := range []int{2, 4, 8} {
		res := runKilled(t, k, 10, pes, 1, 4, Config{PageElems: 8})
		if res.Stats.Recoveries < 1 {
			t.Errorf("%d PEs: Recoveries = %d, want >= 1 (kill never fired?)", pes, res.Stats.Recoveries)
		}
		if res.Stats.ReplayedSPs < 1 {
			t.Errorf("%d PEs: ReplayedSPs = %d, want >= 1", pes, res.Stats.ReplayedSPs)
		}
		t.Logf("%d PEs: recoveries=%d replayed=%d msgs=%d",
			pes, res.Stats.Recoveries, res.Stats.ReplayedSPs, res.Stats.MsgsSent)
	}
}

// TestKillWaitsForAnAssignment: the entry SP recurses locally before its
// first fan-out, so idle PE 1 acks many probe rounds holding nothing. The
// kill must still land after PE 1 was sent its copy — a kill that fires
// earlier recovers a PE with nothing to replay.
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
	res := runKilled(t, k, 10, 2, 1, 2, Config{PageElems: 8})
	if res.Stats.Recoveries < 1 || res.Stats.ReplayedSPs < 1 {
		t.Errorf("Recoveries = %d, ReplayedSPs = %d, want both >= 1", res.Stats.Recoveries, res.Stats.ReplayedSPs)
	}
}

// TestRecoverKillPEZero kills the PE that runs the entry SP: recovery must
// replay the entry spawn itself (plus every fan-out copy assigned to PE 0)
// and still converge to the reference results.
func TestRecoverKillPEZero(t *testing.T) {
	k, _ := kernels.ByName("heat")
	res := runKilled(t, k, 10, 4, 0, 6, Config{PageElems: 8})
	if res.Stats.Recoveries < 1 {
		t.Errorf("Recoveries = %d, want >= 1", res.Stats.Recoveries)
	}
}

// TestRecoverWithDynamicMechanisms kills a PE while stealing, adaptive
// repartitioning, and a page-cache cap are all engaged — recovery has to
// discard or re-mint the dead incarnation's share of each mechanism's
// state.
func TestRecoverWithDynamicMechanisms(t *testing.T) {
	for _, name := range []string{"triangular", "relax"} {
		k, _ := kernels.ByName(name)
		n := 10
		if name == "relax" {
			n = 8
		}
		res := runKilled(t, k, n, 4, 2, 2, Config{
			PageElems: 8, Steal: true, Adapt: true, CachePages: 2,
			ProbeInterval: 20 * time.Microsecond,
		})
		if res.Stats.Recoveries < 1 {
			t.Errorf("%s: Recoveries = %d, want >= 1", name, res.Stats.Recoveries)
		}
	}
}

// TestRecoverDisabledStillFails pins the pre-recovery contract: with
// Config.Recover off, a worker death fails the run with a diagnostic
// instead of hanging or silently succeeding.
func TestRecoverDisabledStillFails(t *testing.T) {
	k, _ := kernels.ByName("heat")
	prog := compile(t, k.File(), k.Source)
	cfg := Config{NumPEs: 4, PageElems: 8, KillPE: 1, KillAfter: 4, RoundTimeout: 2 * time.Second}
	_, err := Execute(testCtx(t), prog, cfg, k.Args(10)...)
	if err == nil {
		t.Fatal("want failure when a worker dies with recovery disabled")
	}
	if !strings.Contains(err.Error(), "died") && !strings.Contains(err.Error(), "stalled") {
		t.Errorf("error %q does not describe the worker death", err)
	}
}

// --- incarnation fencing in isolation ---

// fenceWorker builds a worker wired to a private transport, with recovery
// armed and the given peer-incarnation vector.
func fenceWorker(t *testing.T, incs []int32) (*worker, []Endpoint) {
	t.Helper()
	prog := compile(t, "fence.id", `
func main(n: int) {
	A = array(n);
	A[1] = 1.0;
}`)
	eps := newChanTransport(2, 0)
	w := newWorker(0, &Config{NumPEs: 2, PageElems: 8, DistThreshold: 16, Steal: true}, prog, eps[0])
	w.enableRecovery(0, 0, incs)
	return w, eps
}

// TestFenceDropsStaleFrames: a frame of any kind from a dead incarnation
// of its sender must be dropped whole — not counted, not executed, not
// failing the run.
func TestFenceDropsStaleFrames(t *testing.T) {
	w, _ := fenceWorker(t, []int32{0, 2})
	stale := []*Msg{
		{Kind: KToken, From: 1, Inc: 1, SP: packIncID(0, 0, 1), Slot: 0, Val: isa.Int(7)},
		{Kind: KWrite, From: 1, Inc: 1, Arr: packIncID(1, 1, 1), Off: 0, Val: isa.Float(3)},
		{Kind: KStealGrant, From: 1, Inc: 1, Lists: &MsgLists{Batch: []StealItem{{SP: packIncID(1, 1, 1), Tmpl: 0}}}},
		{Kind: KSpawn, From: 1, Inc: 1, Tmpl: 99},
	}
	for _, m := range stale {
		w.handle(m)
	}
	if w.failed {
		t.Fatal("stale frames failed the worker")
	}
	if w.recv != 0 {
		t.Fatalf("stale data frames were counted: recv = %d", w.recv)
	}
	if w.recover.staleMsgs != int64(len(stale)) {
		t.Fatalf("staleMsgs = %d, want %d", w.recover.staleMsgs, len(stale))
	}
	if len(w.insts) != 0 {
		t.Fatalf("stale grant installed %d SPs", len(w.insts))
	}

	// The same kinds at the current incarnation are processed (the bogus
	// spawn must now fail the run — proving the fence, not the handler,
	// dropped it above).
	w.handle(&Msg{Kind: KSpawn, From: 1, Inc: 2, Tmpl: 99})
	if !w.failed {
		t.Fatal("current-incarnation frame was not processed")
	}
}

// TestEarlyEpochFramesWaitForRecover: a peer frame stamped with a newer
// counting epoch than the worker's has outrun the KRecover on the driver
// stream. It is held — not counted, not executed, not adopted as the new
// epoch, no flush marker sent — until the KRecover for its epoch arrives,
// then replayed in arrival order in that epoch; a frame of a still later
// epoch goes back to waiting.
func TestEarlyEpochFramesWaitForRecover(t *testing.T) {
	w, eps := fenceWorker(t, []int32{0, 0})
	arr := packIncID(1, 0, 1)
	held := []*Msg{
		{Kind: KAlloc, From: 1, Epoch: 1, Arr: arr, Name: "B", Dims: []int32{32}, Origin: 1, Dist: true},
		{Kind: KWrite, From: 1, Epoch: 1, Arr: arr, Off: 3, Val: isa.Float(7)},
		{Kind: KFlush, From: 1, Epoch: 1},
		{Kind: KWrite, From: 1, Epoch: 2, Arr: arr, Off: 4, Val: isa.Float(8)},
	}
	for _, m := range held {
		w.handle(m)
	}
	if w.epoch != 0 || w.recv != 0 || w.recover.flushed != 0 || w.shard.Array(arr) != nil {
		t.Fatalf("early frames took effect: epoch %d recv %d flushed %d", w.epoch, w.recv, w.recover.flushed)
	}
	if !slices.Equal(w.recover.early, held) {
		t.Fatalf("held %d frames, want all %d in arrival order", len(w.recover.early), len(held))
	}
	if m, ok := eps[1].TryRecv(); ok {
		t.Fatalf("an early frame made the worker send a %v", m.Kind)
	}

	recoverTo := func(epoch int32) {
		w.handle(&Msg{Kind: KRecover, From: 2, Epoch: epoch, Cfg: &MsgCfg{Incs: []int32{0, 0}}})
		if m, ok := eps[1].TryRecv(); !ok || m.Kind != KFlush || m.Epoch != epoch {
			t.Fatalf("epoch %d: no flush marker of that epoch went to the peer (got %+v)", epoch, m)
		}
	}
	present := func(off int) bool {
		_, ok := w.shard.Array(arr).Peek(off)
		return ok
	}
	recoverTo(1)
	// The alloc ran before the write that needs it; both count in epoch 1,
	// and the peer's marker counts although the bump cleared the markers.
	if w.failed || w.epoch != 1 || w.recv != 2 || w.recover.flushed != 1 || len(w.pending) != 0 || !present(3) {
		t.Fatalf("after KRecover 1: failed %v epoch %d recv %d flushed %d pending %d written %v",
			w.failed, w.epoch, w.recv, w.recover.flushed, len(w.pending), present(3))
	}
	if len(w.recover.early) != 1 || w.recover.early[0] != held[3] || present(4) {
		t.Fatalf("the epoch-2 frame did not go back to waiting: %d held, applied %v", len(w.recover.early), present(4))
	}
	recoverTo(2)
	if w.epoch != 2 || w.recv != 1 || w.recover.flushed != 0 || len(w.recover.early) != 0 || !present(4) {
		t.Fatalf("after KRecover 2: epoch %d recv %d flushed %d held %d written %v",
			w.epoch, w.recv, w.recover.flushed, len(w.recover.early), present(4))
	}
}

// TestStaleLocalTokenDropped: a token for an ID minted by this PE's dead
// predecessor is a release for re-executed work and is dropped; a token
// for a genuinely unknown current ID still fails an unrecovered worker.
func TestStaleLocalTokenDropped(t *testing.T) {
	w, _ := fenceWorker(t, nil)
	w.inc = 1
	w.recover.recovered = false
	w.deliver(packIncID(0, 0, 5), 0, isa.Int(1))
	if w.failed {
		t.Fatal("stale-incarnation token failed the worker")
	}
	if w.recover.staleMsgs != 1 {
		t.Fatalf("staleMsgs = %d, want 1", w.recover.staleMsgs)
	}
	w.deliver(packIncID(0, 1, 5), 0, isa.Int(1))
	if !w.failed {
		t.Fatal("token for unknown current-incarnation SP did not fail the run")
	}
}

// TestDetectorIgnoresStaleEpochAcks: after a recovery the detector only
// counts acks from the new epoch — an old-epoch ack still in flight can
// neither complete a round nor leak pre-recovery sums into the totals.
func TestDetectorIgnoresStaleEpochAcks(t *testing.T) {
	d := newDetector(2)
	d.reset(1)
	d.begin(1)
	if d.record(0, &Msg{Kind: KAck, Round: 1, Epoch: 0, Ack: &AckStats{Flushed: true, Counters: Counters{MsgsSent: 10, MsgsRecv: 10}}}) {
		t.Fatal("stale-epoch ack completed the round")
	}
	if d.record(0, &Msg{Kind: KAck, Round: 1, Epoch: 1, Ack: &AckStats{Flushed: true, Counters: Counters{MsgsSent: 1, MsgsRecv: 1}}}) {
		t.Fatal("round complete after one PE")
	}
	if !d.record(1, &Msg{Kind: KAck, Round: 1, Epoch: 1, Ack: &AckStats{Flushed: true, Counters: Counters{MsgsSent: 1, MsgsRecv: 1}}}) {
		t.Fatal("round not complete after both PEs answered in the new epoch")
	}
}

// TestDetectorUnflushedBlocksTermination: after an epoch reset, a frame
// sent in the old epoch is counted by neither side, so quiet rounds alone
// prove nothing — the detector must refuse termination until every worker
// reports its epoch flushed (markers from all peers received, which per-
// pair FIFO puts behind every pre-epoch frame).
func TestDetectorUnflushedBlocksTermination(t *testing.T) {
	d := newDetector(2)
	d.reset(1)
	quiet := func(round int32, flushed1 bool) bool {
		d.begin(round)
		d.record(0, &Msg{Kind: KAck, Round: round, Epoch: 1, Ack: &AckStats{Flushed: true}})
		d.record(1, &Msg{Kind: KAck, Round: round, Epoch: 1, Ack: &AckStats{Flushed: flushed1}})
		return d.roundDone()
	}
	if quiet(1, false) || quiet(2, false) {
		t.Fatal("terminated with a worker still awaiting flush markers")
	}
	// Marker lands: the next quiet pair terminates.
	if quiet(3, true) {
		t.Fatal("terminated after a single fully-flushed quiet round")
	}
	if !quiet(4, true) {
		t.Fatal("two fully-flushed quiet rounds did not terminate")
	}
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
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = ServeWorker(ctx, ln)
	}()
	return ln.Addr().String(), cancel
}

// TestRecoverTCPSpare is the TCP half of recovery end to end, in process:
// four ServeWorker PEs on loopback plus one spare; one worker is severed
// mid-run; the driver re-homes its PE onto the spare and the results still
// match the simulator bit for bit.
func TestRecoverTCPSpare(t *testing.T) {
	k, _ := kernels.ByName("relax")
	prog := compile(t, k.File(), k.Source)
	// Long-running arguments: enough gate-serialized sweeps that the kill
	// timer below reliably lands mid-run over loopback TCP.
	args := []isa.Value{isa.Int(12), isa.Int(96)}
	want := simMaskedArrays(t, prog, 4, k.Arrays, args...)

	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	cfg := Config{PageElems: 8, Recover: true, ProbeInterval: time.Millisecond}
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

	res, err := Execute(testCtx(t), prog, cfg, args...)
	if err != nil {
		t.Fatalf("TCP run with spare: %v", err)
	}
	checkMasked(t, res, want)
	if res.Stats.Recoveries < 1 {
		t.Skip("run finished before the kill landed (recoveries=0); results verified anyway")
	}
	t.Logf("tcp spare recovery: recoveries=%d replayed=%d", res.Stats.Recoveries, res.Stats.ReplayedSPs)
}
