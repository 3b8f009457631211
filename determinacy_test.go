// Determinacy (Church-Rosser) tests: a single-assignment dataflow program
// must produce identical results no matter how its operations are
// scheduled. We compile each example kernel once and assert that both
// backends — the discrete-event simulator and the message-passing cluster
// runtime under every row of knobSets — produce bit-for-bit identical
// array contents at every PE count, including the mirror kernel, whose
// consumers race ahead of producers and exercise remote deferred reads, the
// triangular and triread kernels, whose skewed load makes the steal rows
// actually migrate SPs, and the relax kernel, whose drifting skew makes the
// adapt rows actually move Range Filter bounds mid-run.
package pods_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	pods "repro"
	"repro/internal/kernels"
)

// kernelSizes keeps the agreement matrix fast: big enough to spread arrays
// over every PE count (n*n is at least 8 pages of 8 elements), small enough
// to run the whole matrix in seconds.
const (
	determinacyN    = 10
	determinacyPage = 8
)

var determinacyPEs = []int{1, 2, 4, 8}

// fastProbe is the probe cadence of the adapt rows: rebinds ride probe
// rounds, and at 20µs they actually land inside these tiny runs.
const fastProbe = 20 * time.Microsecond

// knobSets is every cluster knob combination the determinacy tests run;
// none may be observable in the results. The evict rows cap each shard at
// two pages, so CLOCK evictions and refetches happen mid-run (a refetched
// page carries the same immutable data); on that floor the heat rows'
// governor and prefetcher fire too; the trace rows' small ring exercises
// the drop-oldest path, and trace frames never move the four-counter sums.
// TestBackendAgreement runs every row, TestBackendAgreementConcurrentJobs
// submits every row at once to one fleet, and
// TestBackendAgreementWithWorkerKill crosses every row with a worker death.
var knobSets = []knobSet{
	{"base", pods.ClusterConfig{PageElems: determinacyPage}},
	{"steal", pods.ClusterConfig{PageElems: determinacyPage, Steal: true}},
	{"adapt", pods.ClusterConfig{PageElems: determinacyPage, Adapt: true, ProbeInterval: fastProbe}},
	{"adapt+steal", pods.ClusterConfig{PageElems: determinacyPage, Adapt: true, Steal: true, ProbeInterval: fastProbe}},
	{"evict", pods.ClusterConfig{PageElems: determinacyPage, CachePages: 2}},
	{"evict+adapt+steal", pods.ClusterConfig{PageElems: determinacyPage, CachePages: 2,
		Adapt: true, Steal: true, ProbeInterval: fastProbe}},
	{"heat+evict", pods.ClusterConfig{PageElems: determinacyPage, CachePages: 2, Heat: true}},
	{"heat+evict+adapt+steal", pods.ClusterConfig{PageElems: determinacyPage, CachePages: 2, Heat: true,
		Adapt: true, Steal: true, ProbeInterval: fastProbe}},
	{"trace", pods.ClusterConfig{PageElems: determinacyPage, Trace: true, TraceCap: 256}},
	{"trace+evict+adapt", pods.ClusterConfig{PageElems: determinacyPage, CachePages: 2,
		Adapt: true, ProbeInterval: fastProbe, Trace: true, TraceCap: 256}},
	{"heat+evict+adapt+steal+trace", pods.ClusterConfig{PageElems: determinacyPage, CachePages: 2, Heat: true,
		Adapt: true, Steal: true, ProbeInterval: fastProbe, Trace: true, TraceCap: 256}},
}

type knobSet struct {
	name string
	cfg  pods.ClusterConfig
}

// arraySet is one backend's observable result: name → values + mask.
type arraySet map[string]struct {
	vals []float64
	mask []bool
	dims []int
}

func gather(t *testing.T, k kernels.Kernel, label string,
	read func(name string) ([]float64, []bool, []int, error)) arraySet {
	t.Helper()
	out := make(arraySet)
	for _, name := range k.Arrays {
		vals, mask, dims, err := read(name)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		out[name] = struct {
			vals []float64
			mask []bool
			dims []int
		}{vals, mask, dims}
	}
	return out
}

func assertSame(t *testing.T, label string, got, want arraySet) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if len(g.vals) != len(w.vals) || fmt.Sprint(g.dims) != fmt.Sprint(w.dims) {
			t.Fatalf("%s: %s: shape %v/%d elems, want %v/%d", label, name, g.dims, len(g.vals), w.dims, len(w.vals))
		}
		for i := range w.vals {
			if g.mask[i] != w.mask[i] {
				t.Fatalf("%s: %s[%d]: written=%v, want %v", label, name, i, g.mask[i], w.mask[i])
			}
			if g.vals[i] != w.vals[i] {
				t.Fatalf("%s: %s[%d] = %v, want %v (backends disagree — determinacy violated)",
					label, name, i, g.vals[i], w.vals[i])
			}
		}
	}
}

// compileWithReference compiles k and returns its arrays from the
// simulator at 1 PE (fully deterministic): the reference every other run
// must match bit for bit.
func compileWithReference(t *testing.T, k kernels.Kernel) (*pods.Program, arraySet) {
	t.Helper()
	p, err := pods.Compile(k.File(), k.Source)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Simulate(pods.SimConfig{NumPEs: 1, PageElems: determinacyPage}, k.Args(determinacyN)...)
	if err != nil {
		t.Fatal(err)
	}
	return p, gather(t, k, "sim@1", ref.Array)
}

func TestBackendAgreement(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			p, want := compileWithReference(t, k)
			args := k.Args(determinacyN)

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for _, pes := range determinacyPEs {
				sres, err := p.Simulate(pods.SimConfig{NumPEs: pes, PageElems: determinacyPage}, args...)
				if err != nil {
					t.Fatalf("sim@%d: %v", pes, err)
				}
				assertSame(t, fmt.Sprintf("sim@%d", pes), gather(t, k, "sim", sres.Array), want)

				for _, ks := range knobSets {
					label := fmt.Sprintf("cluster %s@%d", ks.name, pes)
					res, err := p.ExecuteCluster(ctx, withPEs(ks.cfg, pes), args...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertSame(t, label, gather(t, k, label, res.Array), want)
					checkTraced(t, label, ks.cfg, res)
				}
			}
		})
	}
}

// checkTraced fails a traced run that gathered no trace events.
func checkTraced(t *testing.T, label string, cfg pods.ClusterConfig, res *pods.ClusterResult) {
	t.Helper()
	if tr := res.Trace(); cfg.Trace && (tr == nil || tr.Events() == 0) {
		t.Errorf("%s: no trace events gathered", label)
	}
}

// TestClusterDeferredRemoteReadsObserved pins down that the mirror kernel
// actually exercises the remote read machinery at 4 PEs (the agreement
// above would be vacuous for the message paths otherwise). Whether a
// consumer outruns its producer, and so defers a read, depends on the
// host's schedule; internal/cluster's TestMirrorDeferredReadsPumped pins
// that count on a deterministic one.
func TestClusterDeferredRemoteReadsObserved(t *testing.T) {
	k, _ := kernels.ByName("mirror")
	p, err := pods.Compile(k.File(), k.Source)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := p.ExecuteCluster(ctx, pods.ClusterConfig{NumPEs: 4, PageElems: determinacyPage}, k.Args(16)...)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	t.Logf("mirror@4PE: msgs=%d deferred=%d cacheHits=%d cacheMisses=%d",
		st.MsgsSent, st.DeferredReads, st.CacheHits, st.CacheMisses)
	if st.MsgsSent == 0 {
		t.Error("no inter-PE messages: the run was not distributed at all")
	}
	if st.CacheMisses == 0 {
		t.Error("no page fetches: remote reads never left the PE")
	}
}
