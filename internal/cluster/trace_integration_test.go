package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
)

// TestStallDumpIncludesTraceTails: when a traced run stalls on the probe
// round deadline, the error must carry each reachable PE's last trace
// events — the stall diagnostic a flight recorder exists for.
func TestStallDumpIncludesTraceTails(t *testing.T) {
	h := newHarness(t, taskProgram(), Config{NumPEs: 2, Trace: true}, schedule{})
	// PE 1 never serves its mailbox (a dead worker). PE 0 can still answer
	// the trace gather, so its tail must appear.
	h.dead = 1
	_, err := h.run(isa.SPRef(0), isa.Float(0))
	wantStall(t, err, "stalled", "pe 0 trace tail", "pe 1 trace tail", "(no trace events)")
}

// TestMetricsTextPublishes: after a run the process-wide /metrics text must
// list every pods_* counter, with instruction and ack totals moving.
func TestMetricsTextPublishes(t *testing.T) {
	prog := compile(t, "m.id", `
func main(n: int) {
	A = array(n);
	for i = 1 to n { A[i] = i * 2; }
}`)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := Execute(ctx, prog, Config{NumPEs: 2}, isa.Int(16)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := MetricsText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, name := range []string{"pods_instrs_total", "pods_msgs_total", "pods_acks_total",
		"pods_steals_total", "pods_cache_hits_total", "pods_cache_misses_total",
		"pods_evictions_total"} {
		if !strings.Contains(text, name+" ") {
			t.Errorf("/metrics text missing %s:\n%s", name, text)
		}
	}
	for _, want := range []string{"pods_instrs_total 0\n", "pods_acks_total 0\n"} {
		if strings.Contains(text, want) {
			t.Errorf("counter stuck at zero after a run: %q in\n%s", want, text)
		}
	}
}
