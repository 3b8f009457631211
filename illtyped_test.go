package pods_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/isa"
	"repro/internal/sim"
)

// TestIllTypedProgramsFailEverywhere: each program below passes Validate
// but hands an effect an operand of the wrong kind (an integer where an
// array handle or an SP reference belongs) or a token a slot its target
// does not have. The operand-kind rule lives in the one executor, so every
// backend must end each run in an error — never a panic, never a result,
// never a hang until the deadline.
func TestIllTypedProgramsFailEverywhere(t *testing.T) {
	in := func(op isa.Opcode, dst, a, b int, args ...int) isa.Instr {
		i := isa.NewInstr(op)
		i.Dst, i.A, i.B, i.Args = dst, a, b, args
		return i
	}
	konst := func(dst int, v isa.Value) isa.Instr {
		i := in(isa.CONST, dst, isa.None, isa.None)
		i.Imm = v
		return i
	}
	send := func(ref, val int, slot int64) isa.Instr {
		i := in(isa.SEND, isa.None, ref, val)
		i.Imm = isa.Int(slot)
		return i
	}
	none := isa.None
	// array4 allocates a 4-element array into s0 — array 1 on the backends
	// that number arrays from 1 — with s2 = 4 and s4 = 1 (an index).
	array4 := []isa.Instr{konst(2, isa.Int(4)), konst(4, isa.Int(1)), in(isa.ALLOC, 0, none, none, 2)}

	for _, tc := range []struct {
		name string
		code []isa.Instr
	}{
		{"ROWLO of an integer", []isa.Instr{konst(2, isa.Int(5)), in(isa.ROWLO, 5, 2, none)}},
		{"COLLO of an integer naming a live array", append(array4,
			konst(1, isa.Int(1)), in(isa.COLLO, 5, 1, 4))},
		{"AWRITE through an integer naming a live array", append(array4,
			konst(1, isa.Int(1)), konst(3, isa.Float(2)), in(isa.AWRITE, none, 1, 3, 4))},
		{"AREAD through a float", []isa.Instr{konst(1, isa.Float(1)), konst(4, isa.Int(1)),
			in(isa.AREAD, 5, 1, none, 4), in(isa.MOVE, 6, 5, none)}},
		{"SEND to an integer", []isa.Instr{konst(0, isa.Int(0)), konst(1, isa.Float(7)), send(0, 1, 0)}},
		{"SEND past the end of the frame", []isa.Instr{in(isa.SELF, 0, none, none), konst(1, isa.Float(7)),
			send(0, 1, 99), in(isa.MOVE, 3, 2, none)}}, // s2 never arrives: the SP waits for its tokens
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := &isa.Program{Templates: []*isa.Template{{ID: 0, Name: "main", Kind: isa.TmplMain, NSlots: 8,
				Code: append(tc.code, isa.NewInstr(isa.HALT))}}}
			if err := prog.Validate(); err != nil {
				t.Fatalf("the program must be well-formed: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			check := func(backend string, ran bool, err error) {
				t.Helper()
				switch {
				case ran:
					t.Errorf("%s ran the program", backend)
				case err == nil:
					t.Errorf("%s: no error", backend)
				case errors.Is(err, context.DeadlineExceeded):
					t.Errorf("%s hung until the deadline: %v", backend, err)
				default:
					t.Logf("%s: %v", backend, err)
				}
			}

			m, err := sim.New(prog, sim.Config{NumPEs: 2})
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			check("sim", res != nil, err)

			cres, err := cluster.Execute(ctx, prog, cluster.Config{NumPEs: 2})
			check("cluster", cres != nil, err)
		})
	}
}
