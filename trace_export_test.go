// Observability integration: a traced cluster run must yield a loadable
// Chrome trace_event JSON document and a parseable per-round timeline CSV,
// with the event kinds a steal+adapt relax run is known to produce.
package pods_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"slices"
	"testing"
	"time"

	pods "repro"
	"repro/internal/kernels"
)

// tracedRelaxRun runs relax traced at 8 PEs with stealing and adaptation
// on. internal/cluster's TestKnobGauntlet exports such a run after a
// worker kill.
func tracedRelaxRun(t *testing.T) *pods.ClusterResult {
	t.Helper()
	k, _ := kernels.ByName("relax")
	p, err := pods.Compile(k.File(), k.Source)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := p.ExecuteCluster(ctx, pods.ClusterConfig{NumPEs: 8, Steal: true, Adapt: true, Trace: true}, k.Args(24)...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTracedRunExportsValidChromeJSON(t *testing.T) {
	checkChromeTrace(t, tracedRelaxRun(t))
}

func TestTracedRunExportsTimelineCSV(t *testing.T) {
	checkTimelineCSV(t, tracedRelaxRun(t))
}

// checkChromeTrace checks that an 8-PE traced relax run exports a valid
// Chrome trace_event JSON array with the phases such a run produces.
func checkChromeTrace(t *testing.T, res *pods.ClusterResult) {
	t.Helper()
	tr := res.Trace()
	if tr == nil || tr.NumPEs != 8 {
		t.Fatalf("Trace() = %+v, want 8-PE trace", tr)
	}
	if tr.Events() == 0 {
		t.Fatal("traced run gathered no events")
	}

	var buf bytes.Buffer
	if err := res.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("Chrome trace is not a valid JSON array: %v", err)
	}
	phases := map[string]int{}
	names := map[string]int{}
	for _, e := range evs {
		ph, _ := e["ph"].(string)
		phases[ph]++
		name, _ := e["name"].(string)
		names[name]++
		if _, ok := e["ts"].(float64); !ok {
			t.Fatalf("event missing numeric ts: %v", e)
		}
	}
	// A steal+adapt relax run must produce SP slices ("X"), metadata
	// thread names ("M"), counter tracks ("C"), and instants ("i").
	for _, ph := range []string{"X", "M", "C", "i"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in Chrome trace (phases: %v)", ph, phases)
		}
	}
	if names["thread_name"] != 8 {
		t.Errorf("thread_name metadata count = %d, want one per PE (8)", names["thread_name"])
	}
}

// checkTimelineCSV checks that a traced run exports a parseable, rectangular
// per-round timeline CSV.
func checkTimelineCSV(t *testing.T, res *pods.ClusterResult) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteTimelineCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("timeline CSV does not parse: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("timeline CSV has %d rows, want header + samples", len(rows))
	}
	want := "round,pe,wall_ms,instrs,qdepth,live,sent,hits,misses,evicts,steals"
	if got := joinComma(rows[0]); got != want {
		t.Fatalf("timeline header = %q, want %q", got, want)
	}
	for _, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			t.Fatalf("ragged timeline row: %v", row)
		}
	}
}

func joinComma(fields []string) string {
	out := ""
	for i, f := range fields {
		if i > 0 {
			out += ","
		}
		out += f
	}
	return out
}

// TestUntracedRunHasNoTrace pins the off-by-default contract: without
// ClusterConfig.Trace the run carries no trace and the exporters refuse.
func TestUntracedRunHasNoTrace(t *testing.T) {
	k, _ := kernels.ByName("matmul")
	p, err := pods.Compile(k.File(), k.Source)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := p.ExecuteCluster(ctx, pods.ClusterConfig{NumPEs: 2}, k.Args(8)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace() != nil {
		t.Error("untraced run returned a trace")
	}
	if err := res.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Error("WriteChromeTrace on an untraced run returned no error")
	}
	if err := res.WriteTimelineCSV(&bytes.Buffer{}); err == nil {
		t.Error("WriteTimelineCSV on an untraced run returned no error")
	}
}

// TestTracingExecutesNoInstructions pins what tracing costs in program
// work: nothing. With stealing and adaptation off no SP can change PE, so a
// traced and an untraced run must execute exactly the same instructions on
// every PE.
func TestTracingExecutesNoInstructions(t *testing.T) {
	for _, kn := range []string{"relax", "matmul"} {
		k, _ := kernels.ByName(kn)
		p, err := pods.Compile(k.File(), k.Source)
		if err != nil {
			t.Fatal(err)
		}
		run := func(trace bool) *pods.ClusterResult {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			res, err := p.ExecuteCluster(ctx, pods.ClusterConfig{NumPEs: 4, Trace: trace}, k.Args(16)...)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", kn, trace, err)
			}
			return res
		}
		total := func(res *pods.ClusterResult) (n int64) {
			for _, s := range res.PEStats() {
				n += s.Instrs
			}
			return n
		}
		off, on := run(false), run(true)
		if on.Trace() == nil || on.Trace().Events() == 0 {
			t.Fatalf("%s: the traced run recorded nothing", kn)
		}
		if !slices.Equal(off.PEInstrs(), on.PEInstrs()) {
			t.Errorf("%s: per-PE instructions untraced %v, traced %v", kn, off.PEInstrs(), on.PEInstrs())
		}
		if a, b := total(off), total(on); a != b || a == 0 {
			t.Errorf("%s: instruction totals untraced %d, traced %d", kn, a, b)
		}
	}
}
