package isa

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// This file implements the `.pods` file format of the paper's Figure 3
// pipeline: a translated (and typically partitioned) SP program serialized
// so the compiler driver (cmd/podsc) and the simulator driver (cmd/podsim)
// can be separate processes. The format is versioned JSON — stable,
// diffable, and stdlib-only.

// podsFileVersion is bumped on any incompatible schema change.
const podsFileVersion = 1

type podsFile struct {
	Version int      `json:"version"`
	Program *Program `json:"program"`
}

// jsonInstr mirrors Instr with stable field names. A float immediate is
// written as immF, any other kind as immI.
type jsonInstr struct {
	Op      string   `json:"op"`
	Dst     int      `json:"dst"`
	A       int      `json:"a"`
	B       int      `json:"b"`
	Args    []int    `json:"args,omitempty"`
	ImmKind string   `json:"immKind,omitempty"`
	ImmI    int64    `json:"immI,omitempty"`
	ImmF    *float64 `json:"immF,omitempty"` // a pointer, so -0.0 is written
	Target  int      `json:"target"`
	Comment string   `json:"comment,omitempty"`
}

var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for op := Opcode(1); int(op) < NumOpcodes; op++ {
		m[op.String()] = op
	}
	return m
}()

var kindByName = map[string]Kind{
	"int": KindInt, "float": KindFloat, "bool": KindBool,
	"array": KindArray, "sp": KindSP,
}

// MarshalJSON implements json.Marshaler with symbolic opcode names.
func (in Instr) MarshalJSON() ([]byte, error) {
	j := jsonInstr{
		Op: in.Op.String(), Dst: in.Dst, A: in.A, B: in.B,
		Args: in.Args, Target: in.Target, Comment: in.Comment,
	}
	if in.Imm.Kind != KindInvalid {
		j.ImmKind = in.Imm.Kind.String()
		switch {
		case in.Imm.Kind != KindFloat:
			j.ImmI = in.Imm.I
		case in.Imm.I != 0:
			f := in.Imm.F()
			j.ImmF = &f
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler.
func (in *Instr) UnmarshalJSON(data []byte) error {
	var j jsonInstr
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	op, ok := opByName[j.Op]
	if !ok {
		return fmt.Errorf("isa: unknown opcode %q", j.Op)
	}
	in.Op = op
	in.Dst, in.A, in.B = j.Dst, j.A, j.B
	in.Args = j.Args
	if len(in.Args) == 0 {
		in.Args = nil // "args":[] reads as no args, the form MarshalJSON writes
	}
	in.Target = j.Target
	in.Comment = j.Comment
	in.Imm = Value{}
	if j.ImmKind != "" {
		k, ok := kindByName[j.ImmKind]
		if !ok {
			return fmt.Errorf("isa: unknown value kind %q", j.ImmKind)
		}
		switch {
		case k != KindFloat:
			in.Imm = Value{Kind: k, I: j.ImmI}
		case j.ImmF != nil:
			in.Imm = Float(*j.ImmF)
		default:
			in.Imm = Float(0)
		}
	}
	return nil
}

// WritePods serializes a validated program to w in the `.pods` format.
func WritePods(w io.Writer, p *Program) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("isa: refusing to write invalid program: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(podsFile{Version: podsFileVersion, Program: p})
}

// ReadPods deserializes and validates a program from r.
func ReadPods(r io.Reader) (*Program, error) {
	var f podsFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("isa: bad .pods file: %w", err)
	}
	if f.Version != podsFileVersion {
		return nil, fmt.Errorf("isa: .pods version %d, this build reads %d", f.Version, podsFileVersion)
	}
	if f.Program == nil {
		return nil, fmt.Errorf("isa: .pods file has no program")
	}
	if err := f.Program.Validate(); err != nil {
		return nil, fmt.Errorf("isa: .pods file invalid: %w", err)
	}
	return f.Program, nil
}

// MarshalPods serializes to a byte slice.
func MarshalPods(p *Program) ([]byte, error) {
	var buf bytes.Buffer
	if err := WritePods(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalPods deserializes from a byte slice.
func UnmarshalPods(data []byte) (*Program, error) {
	return ReadPods(bytes.NewReader(data))
}
