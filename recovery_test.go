// Recovery determinacy tests: killing a worker PE mid-run and recovering
// it by respawn + single-assignment replay must be invisible in the
// results. Kernels run at 2/4/8 PEs with a deterministic kill schedule (PE
// 1 dies after its first few frames) under rows of knobSets, and the dumped
// arrays are compared bit for bit — values and presence masks — against
// the simulator. Stats.Recoveries confirms the recovery path actually
// executed rather than the run finishing before the fault fired.
package pods_test

import (
	"context"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	pods "repro"
	"repro/internal/kernels"
)

// killAfterFrames is the deterministic fault schedule: PE 1's endpoint is
// severed on the first frame it sends past this many once it has been sent
// a spawn (data frames and probe acks count, so the kill fires mid-run even
// for a PE whose computation is entirely local).
const killAfterFrames = 2

var killPEs = []int{2, 4, 8}

// killRows are the knobSets rows the worker-kill matrix crosses with a
// death: the static scheduler, and stealing, adaptation and eviction at
// once. TestKnobGauntlet crosses every row.
var killRows = []string{"base", "evict+adapt+steal"}

func TestBackendAgreementWithWorkerKill(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			p, want := compileWithReference(t, k)
			for _, pes := range killPEs {
				for _, name := range killRows {
					i := slices.IndexFunc(knobSets, func(ks knobSet) bool { return ks.name == name })
					if i < 0 {
						t.Fatalf("killRows names %q, which is not a knobSets row", name)
					}
					killedRun(t, p, k, name, knobSets[i].cfg, pes, killAfterFrames, want)
				}
			}
		})
	}
}

// TestKillIndexSweep kills PE 1 after every frame index from 1 to 64 on
// the kernels and rows whose remote reads join in-flight pages: matmul,
// heat and relax at 2 and 4 PEs, under the base, evict and heat+evict
// rows (the steal rows carry the gauntlet's known hang). Only a page's
// first read logs an outstanding read for replay; the reads that joined it
// wait on whatever page arrives, so a kill between the request and its
// page must still wake them. Every run must match the simulator, and each
// row's unkilled matmul and heat runs (2 and 4 PEs together) must make
// joins, or the sweep would not cover them.
func TestKillIndexSweep(t *testing.T) {
	rows := []string{"base", "evict", "heat+evict"}
	for _, name := range []string{"matmul", "heat", "relax"} {
		k, _ := kernels.ByName(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, want := compileWithReference(t, k)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for _, row := range rows {
				i := slices.IndexFunc(knobSets, func(ks knobSet) bool { return ks.name == row })
				var joins int64
				for _, pes := range []int{2, 4} {
					cfg := knobSets[i].cfg
					cfg.NumPEs = pes
					res, err := p.ExecuteCluster(ctx, cfg, k.Args(determinacyN)...)
					if err != nil {
						t.Fatalf("%s@%d: %v", row, pes, err)
					}
					assertSame(t, row, gather(t, k, row, res.Array), want)
					joins += res.Stats().ReadJoins
					for after := int64(1); after <= 64; after++ {
						killedRun(t, p, k, row, knobSets[i].cfg, pes, after, want)
					}
				}
				if name != "relax" && joins == 0 {
					t.Errorf("%s %s: no unkilled read joined an in-flight page", name, row)
				}
			}
		})
	}
}

// TestKnobGauntlet crosses every knobSets row with a worker death — PE 1
// killed after 2 and after 8 frames, at 2, 4 and 8 PEs — runs every row's
// jobs at once on a fleet whose PE 1 dies mid-run, and exports a traced run
// whose rings were gathered across a recovery epoch. The crossing still
// hangs now and then ("deadlocked dataflow program? 1 live SPs"), so it
// runs only with PODS_KILL_GAUNTLET=1.
func TestKnobGauntlet(t *testing.T) {
	if os.Getenv("PODS_KILL_GAUNTLET") == "" {
		t.Skip("set PODS_KILL_GAUNTLET=1 to cross every knob set with a worker kill")
	}
	t.Run("fleet", func(t *testing.T) {
		runConcurrentJobs(t, pods.ClusterConfig{KillPE: 1, KillAfter: 8}, true)
	})
	t.Run("traced-export", func(t *testing.T) {
		res := tracedRelaxRun(t, true)
		if st := res.Stats(); st.Recoveries < 1 {
			t.Fatalf("Recoveries = %d: the exported trace spans no recovery", st.Recoveries)
		}
		checkChromeTrace(t, res)
		checkTimelineCSV(t, res)
	})
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			p, want := compileWithReference(t, k)
			for _, ks := range knobSets {
				for _, pes := range killPEs {
					for _, after := range []int64{2, 8} {
						killedRun(t, p, k, ks.name, ks.cfg, pes, after, want)
					}
				}
			}
		})
	}
}

// killedRun runs cfg at pes PEs with recovery on while PE 1 dies after
// `after` frames, and checks the arrays against want.
func killedRun(t *testing.T, p *pods.Program, k kernels.Kernel, name string, cfg pods.ClusterConfig,
	pes int, after int64, want arraySet) {
	t.Helper()
	label := fmt.Sprintf("%s@%d+kill%d", name, pes, after)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg.NumPEs = pes
	cfg.Recover = true
	cfg.KillPE, cfg.KillAfter = 1, after
	res, err := p.ExecuteCluster(ctx, cfg, k.Args(determinacyN)...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertSame(t, label, gather(t, k, label, res.Array), want)
	checkTraced(t, label, cfg, res)

	// A fired kill cannot yield zero recoveries: the dead endpoint surfaces
	// a down notice and the driver either recovers (counted) or fails the
	// run (caught above) — and because probe acks advance the kill counter
	// every round, killAfterFrames always fires before termination. A
	// later kill can outlast a small run. Replay actually ran: survivors or
	// the driver re-sent some of the dead PE's assignments.
	if st := res.Stats(); after <= killAfterFrames {
		if st.Recoveries < 1 {
			t.Errorf("%s: Recoveries = %d, want >= 1", label, st.Recoveries)
		}
		if st.ReplayedSPs < 1 {
			t.Errorf("%s: ReplayedSPs = %d, want >= 1 after a recovery", label, st.ReplayedSPs)
		}
	}
}
