// Recovery determinacy tests: killing a worker PE mid-run, re-homing it
// and running the job again must be invisible in the results. Kernels run at 2/4/8 PEs with a deterministic kill schedule (PE
// 1 dies after its first few frames) under rows of knobSets, and the dumped
// arrays are compared bit for bit — values and presence masks — against
// the simulator. Stats.Recoveries confirms the recovery path actually
// executed rather than the run finishing before the fault fired.
package pods_test

import (
	"context"
	"fmt"
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

// TestBackendAgreementWithWorkerKill crosses every knobSets row with a
// worker death: PE 1 killed after 2 and after 8 frames, at 2, 4 and 8 PEs.
func TestBackendAgreementWithWorkerKill(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			p, want := compileWithReference(t, k)
			for _, ks := range knobSets {
				for _, pes := range killPEs {
					for _, after := range []int64{killAfterFrames, 8} {
						killedRun(t, p, k, ks.name, ks.cfg, pes, after, want)
					}
				}
			}
		})
	}
}

// TestKillIndexSweep kills PE 1 after every frame index from 1 to 64 on
// the kernels and rows whose remote reads join in-flight pages: matmul,
// heat and relax at 2 and 4 PEs, under the base, evict and heat+evict
// rows, so kills fall between a page request and the page the reads that
// joined it wait on, and under the steal and heat+evict+adapt+steal rows,
// so they also fall between a steal grant and the tokens it forwards.
// Every run must match the simulator, and each row's unkilled matmul and
// heat runs (2 and 4 PEs together) must make joins, or the sweep would not
// cover them.
func TestKillIndexSweep(t *testing.T) {
	rows := []string{"base", "evict", "heat+evict", "steal", "heat+evict+adapt+steal"}
	for _, name := range []string{"matmul", "heat", "relax"} {
		k, _ := kernels.ByName(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, want := compileWithReference(t, k)
			for _, row := range rows {
				i := slices.IndexFunc(knobSets, func(ks knobSet) bool { return ks.name == row })
				var joins int64
				for _, pes := range []int{2, 4} {
					cfg := knobSets[i].cfg
					cfg.NumPEs = pes
					// Each run has its own deadline, as each killed run does: one
					// for the whole sweep expires on a loaded host under -race.
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					res, err := p.ExecuteCluster(ctx, cfg, k.Args(determinacyN)...)
					cancel()
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

// TestKnobGauntlet runs every row's jobs at once on a fleet whose PE 1
// dies mid-run, so the kill can land while another job gathers its
// results, and exports a traced run of a job that ran again after a kill.
func TestKnobGauntlet(t *testing.T) {
	t.Run("fleet", func(t *testing.T) {
		runConcurrentJobs(t, pods.ClusterConfig{KillPE: 1, KillAfter: 8})
	})
	t.Run("traced-export", func(t *testing.T) {
		res := tracedRelaxRun(t, true)
		if st := res.Stats(); st.Recoveries < 1 {
			t.Fatalf("Recoveries = %d: the exported trace is of no re-run", st.Recoveries)
		}
		checkChromeTrace(t, res)
		checkTimelineCSV(t, res)
	})
}

// killedRun runs cfg at pes PEs while PE 1 dies after `after` frames, and
// checks the arrays against want.
func killedRun(t *testing.T, p *pods.Program, k kernels.Kernel, name string, cfg pods.ClusterConfig,
	pes int, after int64, want arraySet) {
	t.Helper()
	label := fmt.Sprintf("%s@%d+kill%d", name, pes, after)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg.NumPEs = pes
	cfg.KillPE, cfg.KillAfter = 1, after
	res, err := p.ExecuteCluster(ctx, cfg, k.Args(determinacyN)...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertSame(t, label, gather(t, k, label, res.Array), want)
	checkTraced(t, label, cfg, res)

	// A fired kill cannot yield zero recoveries: the dead endpoint surfaces
	// a down notice and the driver either runs the job again (counted) or
	// fails the run (caught above) — and because probe acks advance the
	// kill counter every round, killAfterFrames always fires before
	// termination. A later kill can outlast a small run.
	if st := res.Stats(); after <= killAfterFrames && st.Recoveries < 1 {
		t.Errorf("%s: Recoveries = %d, want >= 1", label, st.Recoveries)
	}
}
