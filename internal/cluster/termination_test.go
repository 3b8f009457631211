package cluster

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/rtcfg"
)

// Unit tests for the four-counter termination detector in isolation: round
// accounting (duplicate and stale acks), the two-consecutive-quiet-rounds
// rule, and the stall report the driver's round deadline prints.

// detAck records one probe answer on d: PE pe answering round with the
// given counters and live SP count (epoch 0, trivially flushed). Returns
// whether the round completed.
func detAck(d *detector, pe int, round int32, sent, recv int64, live int32) bool {
	return d.record(pe, &Msg{Kind: KAck, Round: round, Ack: &AckStats{Sent: sent, Recv: recv, Live: int64(live), Flushed: true}})
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

// dropDumpReqEndpoint wraps the driver endpoint and silently loses every
// KDumpReq addressed to one PE — the observable shape of a worker dying
// between the final quiet probe round and the result gather.
type dropDumpReqEndpoint struct {
	Endpoint
	dropTo int
}

func (d *dropDumpReqEndpoint) Send(to int, m *Msg) error {
	if m.Kind == KDumpReq && to == d.dropTo {
		return nil // lost on the wire
	}
	return d.Endpoint.Send(to, m)
}

// TestDriveGatherDeadlineReportsLostDump: a worker that terminates cleanly
// but never serves its dump request must fail the gather phase within the
// round deadline with an outstanding-segments diagnostic, not hang the
// driver until the run context expires.
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
	cfg := Config{NumPEs: 2, PageElems: 8, ProbeInterval: time.Millisecond}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	cfg.RoundTimeout = 200 * time.Millisecond

	eps := newChanTransport(cfg.NumPEs, 0)
	geo := rtcfg.Geometry{PEs: cfg.NumPEs, PageElems: cfg.PageElems, DistThreshold: cfg.DistThreshold}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for pe := 0; pe < cfg.NumPEs; pe++ {
		w := newWorker(pe, cfg.NumPEs, geo, prog, eps[pe], workerOpts{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ctx)
		}()
	}

	driverEp := &dropDumpReqEndpoint{Endpoint: eps[cfg.NumPEs], dropTo: 1}
	_, err := drive(ctx, driverEp, cfg, prog.Entry(), []isa.Value{isa.Int(8)}, nil)
	if err == nil {
		t.Fatal("drive returned no error although PE 1's dump request was lost")
	}
	if ctx.Err() != nil {
		t.Fatalf("drive only failed via the outer context: %v", err)
	}
	for _, want := range []string{"gather stalled", "outstanding"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	cancel()
	wg.Wait()
	for _, ep := range eps {
		ep.Close()
	}
}

// TestDriveRoundDeadlineReportsSilentWorker: a worker that never answers
// probes (dead, wedged, dropped acks) must fail the run with the per-PE
// stall diagnostic within Config.RoundTimeout instead of hanging until the
// run context expires.
func TestDriveRoundDeadlineReportsSilentWorker(t *testing.T) {
	prog := taskProgram()
	cfg := Config{NumPEs: 2, ProbeInterval: time.Millisecond, RoundTimeout: 150 * time.Millisecond}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	cfg.RoundTimeout = 150 * time.Millisecond // keep the test deadline even if fill defaults change

	eps := newChanTransport(cfg.NumPEs, 0)
	geo := rtcfg.Geometry{PEs: cfg.NumPEs, PageElems: cfg.PageElems, DistThreshold: cfg.DistThreshold}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Only PE 0 runs; PE 1 exists on the transport but never serves its
	// mailbox — the equivalent of a worker dying mid-round (its acks are
	// dropped forever).
	var wg sync.WaitGroup
	w0 := newWorker(0, cfg.NumPEs, geo, prog, eps[0], workerOpts{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		w0.run(ctx)
	}()

	start := time.Now()
	_, err := drive(ctx, eps[cfg.NumPEs], cfg, prog.Entry(), []isa.Value{isa.SPRef(0), isa.Float(0)}, nil)
	if err == nil {
		t.Fatal("drive returned no error although PE 1 never acked")
	}
	if ctx.Err() != nil {
		t.Fatalf("drive only failed via the outer context: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("stall detection took %v, want roughly the 150ms round deadline", elapsed)
	}
	for _, want := range []string{"stalled", "pe 1: NO ACK"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	cancel()
	wg.Wait()
	for _, ep := range eps {
		ep.Close()
	}
}
