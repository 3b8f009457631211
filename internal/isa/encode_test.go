package isa_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
)

const roundtripSrc = `
func main(n: int) -> float {
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i * 10 + j);
		}
	}
	s = 0.0;
	for k = 1 to n {
		next s = s + A[k, k];
	}
	return s;
}
`

func TestPodsRoundtrip(t *testing.T) {
	prog := compile(t, "rt.id", roundtripSrc)
	data, err := isa.MarshalPods(prog)
	if err != nil {
		t.Fatal(err)
	}
	back, err := isa.UnmarshalPods(data)
	if err != nil {
		t.Fatal(err)
	}
	// The disassembly must survive the roundtrip byte-for-byte.
	if prog.Listing() != back.Listing() {
		t.Fatal("listing changed across serialization")
	}
	if back.EntryID != prog.EntryID || len(back.Templates) != len(prog.Templates) {
		t.Fatalf("structure changed: entry %d/%d, templates %d/%d",
			back.EntryID, prog.EntryID, len(back.Templates), len(prog.Templates))
	}
	for i, tm := range prog.Templates {
		bt := back.Templates[i]
		if tm.Distributed != bt.Distributed || tm.RFKind != bt.RFKind || tm.HasResult != bt.HasResult {
			t.Errorf("template %d metadata changed", i)
		}
		if tm.Loop != nil {
			if bt.Loop == nil || bt.Loop.Var != tm.Loop.Var || bt.Loop.HasLCD != tm.Loop.HasLCD {
				t.Errorf("template %d loop info changed", i)
			}
		}
	}
}

func TestDeserializedProgramRuns(t *testing.T) {
	prog := compile(t, "rt.id", roundtripSrc)
	data, err := isa.MarshalPods(prog)
	if err != nil {
		t.Fatal(err)
	}
	back, err := isa.UnmarshalPods(data)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *isa.Program) float64 {
		m, err := sim.New(p, sim.Config{NumPEs: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(isa.Int(8))
		if err != nil {
			t.Fatal(err)
		}
		return res.MainValue.F
	}
	if a, b := run(prog), run(back); a != b {
		t.Fatalf("deserialized program computes %v, original %v", b, a)
	}
}

func TestPodsRejectsGarbage(t *testing.T) {
	if _, err := isa.UnmarshalPods([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := isa.UnmarshalPods([]byte(`{"version": 99, "program": null}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version accepted: %v", err)
	}
	if _, err := isa.UnmarshalPods([]byte(`{"version": 1}`)); err == nil {
		t.Fatal("missing program accepted")
	}
	// A structurally invalid program must fail validation on read.
	bad := `{"version":1,"program":{"Templates":[{"ID":0,"Name":"m","Kind":3,"Code":[{"op":"JUMP","dst":-1,"a":-1,"b":-1,"target":42}],"NSlots":1}],"EntryID":0}}`
	if _, err := isa.UnmarshalPods([]byte(bad)); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestWriteRefusesInvalidProgram(t *testing.T) {
	bad := &isa.Program{EntryID: 5}
	if _, err := isa.MarshalPods(bad); err == nil {
		t.Fatal("invalid program serialized")
	}
}

// FuzzUnmarshalPods: UnmarshalPods parses untrusted bytes (a .pods file, a
// job submitted to podsd -serve). It must never panic; a program it accepts
// must pass Validate, decode, and come back equal from MarshalPods and
// UnmarshalPods. The committed corpus (testdata/fuzz) holds matmul's .pods,
// the two shapes Validate once let through (a null template entry and a
// template whose ID is not its index), and a -0.0 float immediate, which
// immF once dropped as a zero.
func FuzzUnmarshalPods(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.UnmarshalPods(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted a program Validate rejects: %v", err)
		}
		out, err := isa.MarshalPods(p)
		if err != nil {
			t.Fatalf("accepted program does not marshal: %v", err)
		}
		back, err := isa.UnmarshalPods(out)
		if err != nil {
			t.Fatalf("marshalled program does not read back: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("program changed across MarshalPods/UnmarshalPods:\n%s\n%s", p.Listing(), back.Listing())
		}
		for _, tm := range p.Templates {
			tm.Decoded()
		}
	})
}
