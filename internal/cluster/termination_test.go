package cluster

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/kernels"
)

// Unit tests for the four-counter termination detector in isolation: round
// accounting (duplicate and stale acks), the two-wave rule (latest reports,
// then one probe round), pushed reports, and the stall report the driver's
// round deadline prints. Then the two ends of the event-driven path: what a
// worker pushes, and that the driver needs no probe timer to finish a job.

// detAck records one probe answer on d: PE pe answering round with the
// given counters and live SP count. Returns whether the round completed.
func detAck(d *detector, pe int, round int32, sent, recv int64, live int32) bool {
	return d.record(pe, &Msg{Kind: KAck, Round: round, Ack: &AckStats{Live: int64(live), Counters: Counters{MsgsSent: sent, MsgsRecv: recv}}})
}

// completeRound collects one full round on d and evaluates it.
func completeRound(t *testing.T, d *detector, round int32, sent, recv int64, live int32) bool {
	t.Helper()
	d.begin(round)
	for pe := 0; pe < len(d.acks); pe++ {
		done := detAck(d, pe, round, sent, recv, live)
		if (pe == len(d.acks)-1) != done {
			t.Fatalf("round %d: completion after pe %d = %v", round, pe, done)
		}
	}
	return d.roundDone()
}

// TestDetectorIgnoresDuplicateAcks is the regression test for the probe
// accounting bug: a duplicated or replayed ack from one PE must not
// complete a round in place of a PE that never answered, and acks from
// stale rounds must be ignored.
func TestDetectorIgnoresDuplicateAcks(t *testing.T) {
	d := newDetector(2)
	d.begin(1)
	ack := func(pe int, round int32, sent int64) bool {
		return detAck(d, pe, round, sent, sent, 0)
	}
	if ack(0, 1, 10) {
		t.Fatal("round complete after a single PE answered")
	}
	if ack(0, 1, 10) {
		t.Fatal("duplicate ack from PE 0 completed the round")
	}
	if ack(0, 1, 11) {
		t.Fatal("replayed ack with different counters completed the round")
	}
	if ack(1, 0, 5) {
		t.Fatal("stale-round ack completed the round")
	}
	if !ack(1, 1, 10) {
		t.Fatal("round not complete after both PEs answered")
	}

	// Out-of-range PE indexes are ignored too.
	d.begin(2)
	if ack(-1, 2, 0) || ack(2, 2, 0) {
		t.Fatal("out-of-range PE completed the round")
	}

	// An ack from a round the detector has moved past stays ignored.
	if ack(0, 1, 10) {
		t.Fatal("ack from a finished round completed the new round")
	}
}

// TestDetectorTwoQuietRoundsRule: termination needs two consecutive
// complete rounds that both observe zero live SPs everywhere and equal,
// unchanged message sums — one quiet round alone proves nothing (a message
// could have been in flight around the probe wave).
func TestDetectorTwoQuietRoundsRule(t *testing.T) {
	d := newDetector(3)

	// Round 1: quiet (all idle, sums balanced) — but first of its kind.
	if completeRound(t, d, 1, 10, 10, 0) {
		t.Fatal("terminated after a single quiet round")
	}
	// Round 2: identical sums, still idle — now termination.
	if !completeRound(t, d, 2, 10, 10, 0) {
		t.Fatal("two identical quiet rounds did not terminate")
	}
}

// peState is one PE's four-counter state in a hand-fed wave.
type peState struct{ sent, recv, live int64 }

// detPush records unsolicited reports (Round 0) on d, one per PE from pe0
// on.
func detPush(t *testing.T, d *detector, pe0 int, states ...peState) {
	t.Helper()
	for i, s := range states {
		m := &Msg{Kind: KAck, Ack: &AckStats{Live: s.live, Counters: Counters{MsgsSent: s.sent, MsgsRecv: s.recv}}}
		if d.record(pe0+i, m) {
			t.Fatalf("a push from pe %d completed a probe round", pe0+i)
		}
	}
}

// detWave collects one complete probe round of per-PE states and
// evaluates it.
func detWave(d *detector, round int32, states ...peState) bool {
	d.begin(round)
	for pe, s := range states {
		d.record(pe, &Msg{Kind: KAck, Round: round,
			Ack: &AckStats{Live: s.live, Counters: Counters{MsgsSent: s.sent, MsgsRecv: s.recv}}})
	}
	return d.roundDone()
}

// TestDetectorPushesArmOneConfirmingRound: the latest reports, acks or
// pushes, are the first wave. Once they are all quiet with balanced sums
// the detector is armed, and one probe round begun after that, with the
// same sums, terminates.
func TestDetectorPushesArmOneConfirmingRound(t *testing.T) {
	d := newDetector(2)
	if d.armed() {
		t.Fatal("armed before any PE reported")
	}
	if detWave(d, 1, peState{4, 3, 0}, peState{3, 3, 1}) || d.armed() {
		t.Fatal("a round with a live SP terminated or armed the detector")
	}
	detPush(t, d, 1, peState{3, 4, 0}) // PE 1 drained its queue and went idle
	if !d.armed() {
		t.Fatal("not armed although every latest report is quiet and 7 sent == 7 received")
	}
	if !detWave(d, 2, peState{4, 3, 0}, peState{3, 4, 0}) {
		t.Fatal("pushed reports plus one matching round did not terminate")
	}
}

// TestDetectorPushIsNotAnAck: a push neither answers the open round for
// its PE nor turns that round into a second wave — the round began before
// the first wave was complete, so only the next one can confirm.
func TestDetectorPushIsNotAnAck(t *testing.T) {
	d := newDetector(2)
	d.begin(1)
	detPush(t, d, 0, peState{1, 1, 0}, peState{1, 1, 0})
	if d.got != 0 {
		t.Fatalf("%d PEs answered round 1 after two pushes, want none", d.got)
	}
	detAck(d, 0, 1, 1, 1, 0)
	if !detAck(d, 1, 1, 1, 1, 0) {
		t.Fatal("round 1 not complete after both PEs acked it")
	}
	if d.roundDone() {
		t.Fatal("a round begun before the reports arrived confirmed them")
	}
	if !detWave(d, 2, peState{1, 1, 0}, peState{1, 1, 0}) {
		t.Fatal("the following round did not terminate")
	}
}

// TestDetectorStaleReportDoesNotTerminate: a report can be overtaken by
// later traffic. The armed round then observes different sums (or a live
// SP) and must not terminate; it becomes the next first wave instead.
func TestDetectorStaleReportDoesNotTerminate(t *testing.T) {
	d := newDetector(2)
	detPush(t, d, 0, peState{2, 2, 0}, peState{1, 1, 0})
	if !d.armed() {
		t.Fatal("balanced quiet reports did not arm")
	}
	// PE 0 sent PE 1 one more message after reporting; both are idle again.
	moved := []peState{{3, 2, 0}, {1, 2, 0}}
	if detWave(d, 1, moved...) {
		t.Fatal("terminated although the round's sums differ from the reported ones")
	}
	// Same sums as the round before, but PE 1 is running an SP.
	if detWave(d, 2, moved[0], peState{1, 2, 1}) || d.armed() {
		t.Fatal("terminated or armed with a live SP in the round")
	}
	detPush(t, d, 1, moved[1])
	if !d.armed() || !detWave(d, 3, moved...) {
		t.Fatal("a stable report/round pair after the traffic did not terminate")
	}
}

// TestDetectorIgnoresForeignReports: reports from a PE out of range never
// count, and a PE that has not reported yet never looks quiet.
func TestDetectorIgnoresForeignReports(t *testing.T) {
	d := newDetector(2)
	quiet := []peState{{5, 5, 0}, {5, 5, 0}}
	detPush(t, d, -1, quiet[0])
	detPush(t, d, 2, quiet[0])
	detPush(t, d, 0, quiet[0])
	if d.armed() {
		t.Fatal("out-of-range reports armed the detector, or PE 1 looked quiet before reporting")
	}
	detPush(t, d, 1, quiet[1])
	if !d.armed() {
		t.Fatal("reports of both PEs did not arm")
	}
}

// TestDetectorLiveOrUnflushedPushNeverArms: a push only arms when it says
// the PE is idle, and a PE that has not reported yet holds it off.
func TestDetectorLiveOrUnflushedPushNeverArms(t *testing.T) {
	d := newDetector(2)
	detPush(t, d, 0, peState{1, 1, 0}, peState{1, 1, 1})
	if d.armed() {
		t.Fatal("armed by a push reporting a live SP")
	}
	d = newDetector(2)
	detPush(t, d, 0, peState{0, 0, 0})
	if d.armed() {
		t.Fatal("armed while PE 1 has not reported")
	}
	if detWave(d, 1, peState{0, 0, 0}, peState{0, 0, 0}) {
		t.Fatal("an unarmed first wave let a single quiet round terminate")
	}
}

func TestDetectorQuietRoundResetByTraffic(t *testing.T) {
	d := newDetector(2)
	if completeRound(t, d, 1, 10, 10, 0) {
		t.Fatal("terminated after a single quiet round")
	}
	// Traffic happened between the waves: sums moved, so the candidate
	// resets even though the round is quiet again.
	if completeRound(t, d, 2, 12, 12, 0) {
		t.Fatal("terminated although the sums changed between quiet rounds")
	}
	if !completeRound(t, d, 3, 12, 12, 0) {
		t.Fatal("stable quiet pair after traffic did not terminate")
	}
}

func TestDetectorLiveSPsBlockTermination(t *testing.T) {
	d := newDetector(2)
	// Balanced sums but a live SP: not even a candidate round.
	if completeRound(t, d, 1, 10, 10, 1) {
		t.Fatal("terminated with live SPs")
	}
	if completeRound(t, d, 2, 10, 10, 0) {
		t.Fatal("terminated with the previous round non-quiet")
	}
	if !completeRound(t, d, 3, 10, 10, 0) {
		t.Fatal("quiet pair after drain did not terminate")
	}
}

func TestDetectorUnbalancedSumsBlockTermination(t *testing.T) {
	d := newDetector(2)
	// sent != recv: a data message is in flight, so the wave is not quiet
	// no matter how often it repeats.
	for round := int32(1); round <= 3; round++ {
		if completeRound(t, d, round, 11, 10, 0) {
			t.Fatal("terminated with a message permanently in flight")
		}
	}
}

// TestDetectorStallReport: the report names the PEs that never answered
// the stalled round and carries every PE's last-ack state.
func TestDetectorStallReport(t *testing.T) {
	d := newDetector(2)
	d.begin(1)
	detAck(d, 0, 1, 7, 7, 2)
	detAck(d, 1, 1, 3, 3, 1)
	d.begin(2)
	detAck(d, 0, 2, 9, 8, 2)
	rep := d.stallReport()
	for _, want := range []string{"pe 0: acked round 2", "pe 1: NO ACK for round 2", "last ack round 1", "live=1"} {
		if !strings.Contains(rep, want) {
			t.Errorf("stall report %q missing %q", rep, want)
		}
	}
}

// TestDriveGatherDeadlineReportsLostDump: a worker that terminates cleanly
// but never serves its dump request must fail the gather phase at the
// round deadline with an outstanding-segments diagnostic, not hang the
// driver.
func TestDriveGatherDeadlineReportsLostDump(t *testing.T) {
	prog := compile(t, "fill.id", `
func main(n: int) {
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i * j);
		}
	}
}`)
	h := newHarness(t, prog, Config{NumPEs: 2, PageElems: 8}, schedule{deadline: 200})
	// The observable shape of PE 1 dying between the final quiet probe
	// round and the result gather.
	h.lose = func(to int, m *Msg) bool { return to == 1 && m.Kind == KDumpReq }
	_, err := h.run(isa.Int(8))
	wantStall(t, err, "gather stalled", "outstanding")
}

// TestDriveRoundDeadlineReportsSilentWorker: a worker that never answers
// probes (dead, wedged, dropped acks) must fail the run with the per-PE
// stall diagnostic once the round has been silent for the deadline,
// instead of hanging the driver.
func TestDriveRoundDeadlineReportsSilentWorker(t *testing.T) {
	h := newHarness(t, taskProgram(), Config{NumPEs: 2}, schedule{deadline: 150})
	h.dead = 1 // PE 1 gets no turns: it never serves its mailbox
	_, err := h.run(isa.SPRef(0), isa.Float(0))
	wantStall(t, err, "stalled", "pe 1: NO ACK")
	if h.now < 150 || h.now >= 300 {
		t.Errorf("the round stalled at virtual time %d, want in [150, 300): one deadline after its last frame", h.now)
	}
}

// wantStall checks that a harness run failed with an error naming every want.
func wantStall(t *testing.T, err error, want ...string) {
	t.Helper()
	if err == nil {
		t.Fatal("the run ended without error although a PE fell silent")
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("error %q missing %q", err, w)
		}
	}
}

// TestWorkerPushesQuiescenceOncePerState gives one worker harness turns:
// it reports to the driver, unsolicited, exactly once per change of
// its idle state — not when nothing changed, not after a probe ack or a
// steal refusal that told the driver nothing new, not while an SP is
// suspended on a remote read.
func TestWorkerPushesQuiescenceOncePerState(t *testing.T) {
	prog := compile(t, "push.id", `
func main(n: int) {
	A = array(n);
	B = array(n);
	B[1] = A[n];
}`)
	h := newHarness(t, prog, Config{NumPEs: 2, PageElems: 8, Steal: true}, schedule{})
	w, peer, driver := h.ws[0], 1, 2

	// turn sends PE 0 the frames from party `from`, gives it turns until one
	// moves nothing (it would block), and returns what reached the driver
	// (pushes are KAcks with Round 0) and the peer.
	turn := func(from int, in ...*Msg) (pushes, toDriver, toPeer []*Msg) {
		t.Helper()
		for _, m := range in {
			_ = harnessEP{h, from}.Send(0, m)
		}
		for h.turn(w, true) {
		}
		if w.failed {
			t.Fatal("worker failed")
		}
		for m, ok := h.boxes[driver].tryRecv(); ok; m, ok = h.boxes[driver].tryRecv() {
			if m.Kind == KAck && m.Round == 0 {
				pushes = append(pushes, m)
			} else {
				toDriver = append(toDriver, m)
			}
		}
		for m, ok := h.boxes[peer].tryRecv(); ok; m, ok = h.boxes[peer].tryRecv() {
			toPeer = append(toPeer, m)
		}
		return pushes, toDriver, toPeer
	}
	wantPush := func(step string, pushes []*Msg, sent, recv int64) {
		t.Helper()
		if len(pushes) != 1 {
			t.Fatalf("%s: %d pushes, want exactly 1", step, len(pushes))
		}
		if a := pushes[0].Ack; a.MsgsSent != sent || a.MsgsRecv != recv || a.Live != 0 {
			t.Fatalf("%s: pushed %+v, want sent %d recv %d live 0", step, *a, sent, recv)
		}
	}
	noPush := func(step string, pushes []*Msg) {
		t.Helper()
		if len(pushes) != 0 {
			t.Fatalf("%s: %d pushes (%+v), want none", step, len(pushes), *pushes[0].Ack)
		}
	}

	pushes, _, _ := turn(driver)
	wantPush("first idle spell", pushes, 0, 0)
	pushes, _, _ = turn(driver)
	noPush("idle again, nothing changed", pushes)
	pushes, _, _ = turn(peer, &Msg{Kind: KStealNone})
	noPush("steal refusal", pushes)
	pushes, acks, _ := turn(driver, &Msg{Kind: KProbe, Round: 1})
	if len(acks) != 1 || acks[0].Kind != KAck || acks[0].Round != 1 {
		t.Fatalf("probe answered with %d frames", len(acks))
	}
	noPush("probe ack of the state already pushed", pushes)

	// The entry SP broadcasts two headers and blocks reading A[n], which
	// PE 1 owns: live SP, no report, however often the worker idles.
	pushes, _, toPeer := turn(driver, &Msg{Kind: KSpawn, Tmpl: int32(prog.Entry().ID), Args: []isa.Value{isa.Int(32)}})
	noPush("SP suspended on a remote read", pushes)
	var req *Msg
	for _, m := range toPeer {
		if m.Kind == KReadReq {
			req = m
		}
	}
	if req == nil || len(w.insts) != 1 {
		t.Fatalf("no remote read outstanding (live SPs %d, frames to peer %d)", len(w.insts), len(toPeer))
	}
	pushes, _, _ = turn(driver)
	noPush("still suspended", pushes)
	sent := w.sent
	pushes, _, _ = turn(peer, &Msg{Kind: KToken, SP: req.SP, Slot: req.Slot, Val: isa.Float(7)})
	wantPush("read answered, SP ran to its end", pushes, sent, 1)
	pushes, _, _ = turn(driver)
	noPush("idle again after the SP ended", pushes)
}

// TestTerminationIndependentOfProbeTimer: with the probe cadence set to an
// hour, nothing after the first round is ever timer-driven — jobs finish
// only because workers report going idle and the driver confirms at once.
// The floor job, a kernel with arrays and a steal+adapt job each complete
// well inside 5 s on a 2-PE fleet: chan, chan with injected latency, and
// loopback TCP. On the harness, where the hour is virtual and the clock
// skips to it once nothing can move, every kernel on the base, steal and
// adapt+steal rows, at 4 PEs on the zero schedule and three seeds, ends
// with the timer never having fired.
func TestTerminationIndependentOfProbeTimer(t *testing.T) {
	t.Run("harness", func(t *testing.T) {
		for _, k := range kernels.All() {
			for _, cfg := range []Config{{}, {Steal: true}, {Adapt: true, Steal: true}} {
				for seed := range uint64(4) {
					if h, _ := harnessRun(t, k, 10, 4, cfg, schedule{seed: seed, probe: time.Hour}); h.ticks != 0 {
						t.Errorf("%s %+v seed %d: the probe timer fired %d times", k.Name, cfg, seed, h.ticks)
					}
				}
			}
		}
	})
	floor := compile(t, "floor.id", `func main(n: int) -> int { return n + 1; }`)
	heat, heatProg := compileKernel(t, "heat")
	tri, triProg := compileKernel(t, "triangular")

	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	var tcp []string
	for i := 0; i < 2; i++ {
		addr, _ := startServeWorker(t, &wg)
		tcp = append(tcp, addr)
	}
	fleets := []struct {
		name string
		cfg  Config
	}{
		{"chan", Config{NumPEs: 2}},
		{"chan+latency", Config{NumPEs: 2, Latency: 200 * time.Microsecond}},
		{"tcp", Config{Workers: tcp}},
	}
	for _, fc := range fleets {
		t.Run(fc.name, func(t *testing.T) {
			f, err := OpenFleet(context.Background(), fc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			seams{probe: time.Hour}.set(f)
			submit := func(prog *isa.Program, cfg Config, args ...isa.Value) *Result {
				t.Helper()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				cfg.PageElems = 8
				res, err := f.Submit(ctx, prog, cfg, args...)
				if err != nil {
					t.Fatalf("job did not finish without the probe timer: %v", err)
				}
				return res
			}
			if res := submit(floor, Config{}, isa.Int(41)); res.Value == nil || res.Value.AsInt() != 42 {
				t.Fatalf("floor job returned %v, want 42", res.Value)
			}
			heatVals, heatMasks := simArraysMasked(t, heatProg, 2, heat.Arrays, heat.Args(10)...)
			checkAgainstSimMasked(t, submit(heatProg, Config{}, heat.Args(10)...), heatVals, heatMasks)
			triVals, triMasks := simArraysMasked(t, triProg, 2, tri.Arrays, tri.Args(12)...)
			checkAgainstSimMasked(t, submit(triProg, Config{Steal: true, Adapt: true}, tri.Args(12)...), triVals, triMasks)
		})
	}
}

// BenchmarkSubmitFloor is the per-job floor: Fleet.Submit of `return n+1`
// on an idle 2-PE chan fleet — job start, one push, one confirming probe
// round, an empty gather, job end.
func BenchmarkSubmitFloor(b *testing.B) {
	prog := compile(b, "floor.id", `func main(n: int) -> int { return n + 1; }`)
	ctx := context.Background()
	f, err := OpenFleet(ctx, Config{NumPEs: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ReportAllocs()
	for b.Loop() {
		res, err := f.Submit(ctx, prog, Config{}, isa.Int(41))
		if err != nil || res.Value.AsInt() != 42 {
			b.Fatalf("floor job: %v, %v", res, err)
		}
	}
}

// BenchmarkProbeRound is one full probe→ack round of the driver's
// detector against two parked workers on the chan transport.
func BenchmarkProbeRound(b *testing.B) {
	const n = 2
	eps := newChanTransport(n, 0)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for pe := 0; pe < n; pe++ {
		w := newWorker(pe, &Config{NumPEs: n, PageElems: 32}, taskProgram(), eps[pe])
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ctx)
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()
	det := newDetector(n)
	round := int32(0)
	b.ReportAllocs()
	for b.Loop() {
		round++
		det.begin(round)
		for pe := 0; pe < n; pe++ {
			if err := eps[n].Send(pe, &Msg{Kind: KProbe, Round: round}); err != nil {
				b.Fatal(err)
			}
		}
		for done := false; !done; {
			m, err := eps[n].in.recv(ctx)
			if err != nil {
				b.Fatal(err)
			}
			done = det.record(int(m.From), m)
		}
	}
	if !det.armed() {
		b.Fatal("parked workers did not report quiescence")
	}
}
