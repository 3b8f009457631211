package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/kernels"
	"repro/internal/sim"
)

const goldenPath = "testdata/golden.json"

// goldenCase is everything a run reports that depends on the (t, seq) event
// order: the virtual time, every counter and every unit's busy time.
type goldenCase struct {
	Name   string
	Time   int64
	Counts sim.Counts
	PEs    [][5]int64 // EU, MU, MM, AM, RU busy ns per PE
}

type goldenRun struct {
	name string
	run  func() (*sim.Result, error)
}

func goldenRuns() []goldenRun {
	var runs []goldenRun
	add := func(name string, run func() (*sim.Result, error)) {
		runs = append(runs, goldenRun{name, run})
	}
	variants := []bench.Variant{bench.VariantPODS, bench.VariantPR, bench.VariantNoCache}
	for _, n := range []int{16, 32} {
		for _, pes := range []int{1, 2, 8, 32} {
			for _, v := range variants {
				add(fmt.Sprintf("simple/n=%d/pes=%d/%s", n, pes, v), func() (*sim.Result, error) {
					return bench.RunSimple(n, pes, v)
				})
			}
		}
		add(fmt.Sprintf("simple/n=%d/pes=1/seq", n), func() (*sim.Result, error) {
			return bench.RunSimple(n, 1, bench.VariantSeq)
		})
	}
	for _, c := range []struct {
		pes int
		v   bench.Variant
	}{{1, bench.VariantSeq}, {1, bench.VariantPODS}, {8, bench.VariantPODS}, {8, bench.VariantPR}} {
		add(fmt.Sprintf("conduction/n=16/pes=%d/%s", c.pes, c.v), func() (*sim.Result, error) {
			return bench.RunConduction(16, c.pes, c.v)
		})
	}
	for _, name := range []string{"matmul", "relax", "triangular", "heat"} {
		k, _ := kernels.ByName(name)
		for _, cfg := range []sim.Config{{NumPEs: 2}, {NumPEs: 8}, {NumPEs: 4, PageElems: 8}} {
			add(fmt.Sprintf("%s/n=12/pes=%d/page=%d", name, cfg.NumPEs, cfg.PageElems), func() (*sim.Result, error) {
				prog, err := bench.Compile(k.File(), k.Source, true)
				if err != nil {
					return nil, err
				}
				m, err := sim.New(prog, cfg)
				if err != nil {
					return nil, err
				}
				return m.Run(k.Args(12)...)
			})
		}
	}
	for _, pes := range []int{1, 32} {
		add(fmt.Sprintf("simple/n=64/pes=%d/PODS", pes), func() (*sim.Result, error) {
			return bench.RunSimple(64, pes, bench.VariantPODS)
		})
	}
	return runs
}

func record(name string, res *sim.Result) goldenCase {
	c := goldenCase{Name: name, Time: int64(res.Time), Counts: res.Counts}
	for _, u := range res.PEs {
		c.PEs = append(c.PEs, [5]int64{int64(u.EU), int64(u.MU), int64(u.MM), int64(u.AM), int64(u.RU)})
	}
	return c
}

// firstDiff names the first field in which got departs from want.
func firstDiff(want, got goldenCase) string {
	if want.Time != got.Time {
		return fmt.Sprintf("Time = %d, golden %d", got.Time, want.Time)
	}
	wc, gc := reflect.ValueOf(want.Counts), reflect.ValueOf(got.Counts)
	for i := 0; i < wc.NumField(); i++ {
		if w, g := wc.Field(i).Int(), gc.Field(i).Int(); w != g {
			return fmt.Sprintf("Counts.%s = %d, golden %d", wc.Type().Field(i).Name, g, w)
		}
	}
	if len(want.PEs) != len(got.PEs) {
		return fmt.Sprintf("%d PEs, golden %d", len(got.PEs), len(want.PEs))
	}
	units := [5]string{"EU", "MU", "MM", "AM", "RU"}
	for p := range want.PEs {
		for u := range units {
			if w, g := want.PEs[p][u], got.PEs[p][u]; w != g {
				return fmt.Sprintf("PEs[%d].%s = %d, golden %d", p, units[u], g, w)
			}
		}
	}
	return ""
}

// figure10 pins the paper's headline configuration by value, so the numbers
// survive even a re-recorded golden file: SIMPLE 64×64 at 32 PEs against
// 1 PE is the 12.0503 virtual speed-up the benchmark reports.
var figure10 = map[string][4]int64{ // ns, ctx switches, small msgs, page msgs
	"simple/n=64/pes=32/PODS": {365_494_958, 46_378, 25_412, 12_424},
	"simple/n=64/pes=1/PODS":  {4_404_335_604, 16_782, 0, 0},
}

// TestGoldenBitIdentity pins the simulator's virtual results — recorded
// before the event core was rebuilt — across SIMPLE, conduction and four
// kernels, every variant, and 1–32 PEs.
func TestGoldenBitIdentity(t *testing.T) {
	runs := goldenRuns()
	if *sim.UpdateGolden {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, r := range runs {
			res, err := r.run()
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			line, err := json.Marshal(record(r.name, res))
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(runs)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]goldenCase, len(cases))
	for _, c := range cases {
		want[c.Name] = c
	}
	if len(want) != len(runs) {
		t.Fatalf("golden file has %d cases, the test runs %d", len(want), len(runs))
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			if testing.Short() && r.name == "simple/n=64/pes=1/PODS" {
				t.Skip("1.2M instructions on one virtual PE")
			}
			w, ok := want[r.name]
			if !ok {
				t.Fatal("not in the golden file")
			}
			res, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if d := firstDiff(w, record(r.name, res)); d != "" {
				t.Error(d)
			}
			got := [4]int64{int64(res.Time), res.Counts.CtxSwitches, res.Counts.SmallMsgs, res.Counts.PageMsgs}
			if pin, ok := figure10[r.name]; ok && got != pin {
				t.Errorf("time, ctx switches, small msgs, page msgs = %v; Figure 10 cell pinned at %v", got, pin)
			}
		})
	}
}

// TestGoldenTrace pins a multi-PE trace of the control-driven baseline —
// remote spawns, blocks, unblocks and stall resumes — byte for byte.
func TestGoldenTrace(t *testing.T) {
	k, _ := kernels.ByName("heat")
	prog, err := bench.Compile(k.File(), k.Source, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m, err := sim.New(prog, sim.Config{NumPEs: 2, PageElems: 4, Stall: true, Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(k.Args(4)...); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/trace_heat_stall.txt"
	if *sim.UpdateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range wl {
		if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
			got := "<end of trace>"
			if i < len(gl) {
				got = string(gl[i])
			}
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, got, wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d trace lines, golden %d", len(gl), len(wl))
	}
}
