package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// gitStatus returns git's status of this directory, the test's working
// directory, or ok=false when this is not a git checkout (the benchmark's
// own driver runs from a plain copy). Other packages' tests run beside this
// one and may touch their own files, so the rest of the tree is not compared.
func gitStatus() (string, bool) {
	out, err := exec.Command("git", "status", "--porcelain", "--", ".").Output()
	return string(out), err == nil
}

// TestSmoke runs every workload at tiny size through both passes and checks
// that each pass reports every metric BENCHMARK.json promises, finite and
// well-named, with no failed job and nothing written outside -out.
func TestSmoke(t *testing.T) {
	if set := forcedEnv(); len(set) > 0 {
		t.Skipf("%v set: the benchmark refuses to run with forced knobs", set)
	}
	before, inGit := gitStatus()
	out := t.TempDir()
	for _, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			rec, err := measure(context.Background(), &w, options{seed: 1, seconds: 1, trace: traced, tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if rec.Failed != 0 || rec.Attempted < w.tinyJobs {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.name, traced, rec.Attempted, rec.Failed)
			}
			for _, d := range rec.reported() {
				v, ok := rec.Metrics[d.Name]
				if !ok && !traced {
					t.Errorf("%s: end-to-end metric %s missing", w.name, d.Name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s: %s = %v", w.name, d.Name, v)
				}
				if !traced && v == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
				}
			}
			if err := rec.save(out); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			rec.print(&buf)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil ||
				len(line.Metrics) != len(rec.reported()) {
				t.Errorf("%s trace=%v: result line %s", w.name, traced, lines[len(lines)-1])
			}
		}
		if _, err := os.Stat(filepath.Join(out, "spans-"+w.name+"-seed1.json")); err != nil {
			t.Errorf("%s: traced pass wrote no spans file: %v", w.name, err)
		}
	}

	if after, _ := gitStatus(); inGit && after != before {
		t.Errorf("the benchmark changed the working tree:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestCorruptReference: a job whose output mismatches the reference is a
// failed operation, counted and reported, not a crash.
func TestCorruptReference(t *testing.T) {
	if len(forcedEnv()) > 0 {
		t.Skip("forced knobs set")
	}
	ctx := context.Background()
	w := workloads(true)[0]
	r := &run{w: &w, o: options{tiny: true}, root: -1}
	var err error
	if r.env, err = w.setUp(ctx, nil, -1); err != nil {
		t.Fatal(err)
	}
	defer r.env.close()
	ref, err := r.reference(-1, &w.specs[0], &simAgg{})
	if err != nil {
		t.Fatal(err)
	}
	ref.hash ^= 1
	r.refs = []reference{ref}
	p := r.runPhase(ctx, false, 0)
	if p.attempted != 1 || p.failed != 1 || len(p.ok) != 0 {
		t.Errorf("attempted %d, failed %d, ok %d; want 1, 1, 0", p.attempted, p.failed, len(p.ok))
	}
}

func TestForcedEnvRefused(t *testing.T) {
	t.Setenv("PODS_FORCE_STEAL", "1")
	w := workloads(true)[0]
	if _, err := measure(context.Background(), &w, options{tiny: true}); err == nil || !strings.Contains(err.Error(), "PODS_FORCE_STEAL") {
		t.Errorf("measure with PODS_FORCE_STEAL set: %v", err)
	}
}

// TestManifest keeps BENCHMARK.json and the program's tables the same.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nmanifest %+v\nprogram  %+v", man.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(man.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nmanifest %+v\nprogram  %+v", man.PerLayer, perLayer)
	}
	ws := workloads(false)
	if len(man.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(man.Workloads), len(ws))
	}
	for i, w := range ws {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %s: %s", i, man.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if len(d.Unit) == 0 || len(d.Unit) > 16 || d.Bound > 0.25 {
			t.Errorf("metric %s: unit %q, bound %v", d.Name, d.Unit, d.Bound)
		}
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 || len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", man.RunSeconds, man.Paths)
	}
}

// TestCompare: the verdicts of the two-set rule.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, walls ...float64) string {
		var buf bytes.Buffer
		for _, wall := range walls {
			rec := record{Workload: "relax_chan", Metrics: map[string]float64{"wall_s": wall, "setup_s": 1, "jobs_per_s": 1 / wall}}
			data, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(data, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", 1.00, 1.01, 0.99, 1.00)
	cases := []struct {
		name    string
		path    string
		code    int
		verdict string
	}{
		{"same", write("same.jsonl", 1.01, 1.00, 1.00, 0.99), 0, "ok"},
		{"slower", write("slow.jsonl", 1.30, 1.31, 1.29, 1.30), 1, "regressed"},
		{"noisy", write("noisy.jsonl", 0.7, 1.0, 1.3, 1.6), 0, "unresolved"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		code, err := compareFiles(&buf, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		var wallLine string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.Contains(l, " wall_s ") {
				wallLine = l
			}
		}
		if code != c.code || !strings.HasSuffix(wallLine, c.verdict) {
			t.Errorf("%s: exit %d, wall_s row %q; want exit %d, verdict %s", c.name, code, wallLine, c.code, c.verdict)
		}
	}
}
