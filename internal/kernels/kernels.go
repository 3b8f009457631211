// Package kernels holds the paper's example workloads as Idlite sources in
// one canonical place, so the examples, the benchmark harness, and the
// backend-agreement (Church-Rosser) tests all compile exactly the same
// programs. Each kernel names the arrays a test should gather and compare.
package kernels

import (
	"repro/internal/isa"
	"repro/internal/simple"
)

// Kernel is one benchmark workload: an Idlite program plus the argument
// vector for a given problem size and the arrays whose final contents
// define the program's observable result.
type Kernel struct {
	// Name is the kernel's short identifier ("matmul", "heat", ...).
	Name string

	// Source is the Idlite program text.
	Source string

	// Args builds main's argument vector for problem size n.
	Args func(n int) []isa.Value

	// Arrays lists the arrays to gather and compare across backends.
	Arrays []string
}

// File returns the synthetic filename used when compiling the kernel.
func (k Kernel) File() string { return k.Name + ".id" }

// Matmul is the generic matrix-multiply example of §5.2: a dense product
// with a loop-carried inner-product accumulator. PODS distributes the outer
// loop over the rows of C and keeps the k-loop serial.
const Matmul = `
func main(n: int) {
	A = array(n, n);
	B = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i + j);
			B[i, j] = float(i - j) * 0.5;
		}
	}
	C = array(n, n);
	for i2 = 1 to n {
		for j2 = 1 to n {
			s = 0.0;
			for k = 1 to n {
				next s = s + A[i2, k] * B[k, j2];
			}
			C[i2, j2] = s;
		}
	}
}
`

// Heat is an explicit Jacobi heat-diffusion step: a loop nest with no
// loop-carried dependencies, so PODS distributes the row loop; neighbour
// reads at segment boundaries exercise the remote page cache.
const Heat = `
func main(n: int) {
	T0 = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			hot = if i == 1 then 10.0 else 0.0;
			T0[i, j] = hot + float(j) * 0.01;
		}
	}
	T1 = array(n, n);
	step(n, T0, T1);
	T2 = array(n, n);
	step(n, T1, T2);
	T3 = array(n, n);
	step(n, T2, T3);
}

func step(n: int, old: array2, new: array2) {
	for i = 1 to n {
		for j = 1 to n {
			up    = if i == 1 then old[i, j] else old[i - 1, j];
			down  = if i == n then old[i, j] else old[i + 1, j];
			left  = if j == 1 then old[i, j] else old[i, j - 1];
			right = if j == n then old[i, j] else old[i, j + 1];
			new[i, j] = 0.25 * (up + down + left + right);
		}
	}
}
`

// Pipeline chains three phases that synchronize element by element through
// I-structure availability instead of barriers: consumers run ahead of
// producers and their reads are deferred until the writes land.
const Pipeline = `
func model(x: float) -> float {
	return sqrt(x * x + 1.0) * 0.5;
}

func main(n: int) {
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = model(float(i + j));
		}
	}
	B = array(n, n);
	for i2 = 1 to n {
		for j2 = 1 to n {
			left = if j2 == 1 then A[i2, j2] else A[i2, j2 - 1];
			B[i2, j2] = A[i2, j2] + 0.5 * left;
		}
	}
	R = array(n);
	for i3 = 1 to n {
		s = 0.0;
		for k = 1 to n {
			next s = s + B[i3, k];
		}
		R[i3] = s;
	}
}
`

// Mirror reads each element of A at the mirrored index, so with more than
// one PE nearly every consumer iteration reads an element owned by another
// PE — and because both loops run concurrently, many of those reads arrive
// before the producer has written the element, exercising the remote
// deferred-read path (the owner queues the request and replies on write).
const Mirror = `
func main(n: int) {
	A = array(n, n);
	B = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i * 100 + j);
		}
	}
	for i2 = 1 to n {
		for j2 = 1 to n {
			B[i2, j2] = A[n - i2 + 1, n - j2 + 1] * 2.0;
		}
	}
}
`

// Triangular is a provably skewed workload under static SPAWND
// partitioning: row i of the lower-triangular update costs O(i²) (an O(j)
// accumulation per element, j ≤ i elements), so when the outer loop is
// split into contiguous row blocks the last PE does asymptotically half of
// all the work while the first finishes almost immediately. Each row is
// spawned eagerly as its own not-yet-started SP, which makes the idle PEs'
// recovery measurable: with work stealing on, they drain the loaded PEs'
// row queues. The upper triangle is never written (the agreement tests
// compare presence masks as well as values).
const Triangular = `
func main(n: int) {
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to i {
			s = 0.0;
			for k = 1 to j {
				next s = s + sqrt(float(k + i * j));
			}
			A[i, j] = s;
		}
	}
}
`

// Triread is the triangular kernel with remote operand reads: row i of the
// lower-triangular update accumulates over row i of a producer array X, so
// a stolen row task drags its operand row across the machine — the
// workload that makes steal locality measurable. Under static partitioning
// X and A split identically, so a row's reads are local until the row
// migrates; after a steal they probe the thief's page cache, and because
// adjacent rows share straddling pages (rows are not page-aligned), a
// batched grant of neighbouring rows pays fewer page fetches than the same
// rows scattered one-per-victim across the thieves.
const Triread = `
func main(n: int) {
	X = array(n, n);
	for p = 1 to n {
		for q = 1 to n {
			X[p, q] = sqrt(float(p * 31 + q));
		}
	}
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to i {
			s = 0.0;
			for k = 1 to j {
				next s = s + X[i, k];
			}
			A[i, j] = s * 0.5;
		}
	}
}
`

// Relax is an iterative triangular relaxation whose optimal Range-Filter
// split drifts across sweeps — the workload adaptive repartitioning is
// for. One array W holds sweeps+1 grid versions side by side in its
// columns (arrays cannot be loop-carried, so versions are column blocks);
// sweep s reads block s-1 and writes block s. Row i's cost at sweep s is
// a cyclic triangle wave over (i + 2(s-1)) inner-loop trips per element —
// a smooth load peak that rotates two rows per sweep, so any fixed
// partition is wrong for most sweeps, while costs observed in sweep s-1
// remain a near-perfect predictor for sweep s even when the rebind lands
// a sweep late. The serial gs-loop reads one element from every row of
// the freshly written block and feeds the result into the next sweep's
// arguments, making each sweep's SPAWND fan-out a true sweep barrier:
// sweep s+1 cannot start before sweep s has finished everywhere.
const Relax = `
func main(n: int, sweeps: int) {
	W = array(n, (sweeps + 1) * n);
	for i0 = 1 to n {
		for j0 = 1 to n {
			W[i0, j0] = float(i0 * 3 + j0) * 0.25;
		}
	}
	g = 0.0;
	for s = 1 to sweeps {
		relax(n, s, g, W);
		gs = 0.0;
		for r = 1 to n {
			next gs = gs + W[r, s * n + n];
		}
		next g = gs * 0.000001;
	}
}

func relax(n: int, s: int, gate: float, W: array2) {
	off = (s - 1) * 2 % (2 * n);
	for i = 1 to n {
		w = (i + off) % (2 * n);
		lim = if w < n then w + 1 else 2 * n - w;
		for j = 1 to n {
			acc = gate * 0.0;
			for k = 1 to lim {
				next acc = acc + sqrt(W[i, (s - 1) * n + j] + float(k + j));
			}
			W[i, s * n + j] = acc;
		}
	}
}
`

// All returns the kernel registry.
func All() []Kernel {
	intArg := func(n int) []isa.Value { return []isa.Value{isa.Int(int64(n))} }
	return []Kernel{
		{Name: "matmul", Source: Matmul, Args: intArg, Arrays: []string{"A", "B", "C"}},
		{Name: "heat", Source: Heat, Args: intArg,
			Arrays: []string{"T0", "T1", "T2", "T3"}},
		{Name: "pipeline", Source: Pipeline, Args: intArg, Arrays: []string{"A", "B", "R"}},
		{Name: "mirror", Source: Mirror, Args: intArg, Arrays: []string{"A", "B"}},
		{Name: "triangular", Source: Triangular, Args: intArg, Arrays: []string{"A"}},
		{Name: "triread", Source: Triread, Args: intArg, Arrays: []string{"X", "A"}},
		{Name: "relax", Source: Relax,
			Args:   func(n int) []isa.Value { return []isa.Value{isa.Int(int64(n)), isa.Int(4)} },
			Arrays: []string{"W"}},
	}
}

// ByName returns the named kernel, or ok=false.
func ByName(name string) (Kernel, bool) {
	for _, k := range All() {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// Builtin resolves a name the command-line tools accept for -builtin:
// "simple" (the SIMPLE hydrodynamics code), "conduction" (its conduction
// routine driven standalone), or a kernel of All. It returns the
// program's filename and source.
func Builtin(name string) (file, src string, ok bool) {
	switch name {
	case "simple":
		return "simple.id", simple.Source, true
	case "conduction":
		return "conduction.id", simple.ConductionSource, true
	}
	k, ok := ByName(name)
	return k.File(), k.Source, ok
}

// BuiltinNames lists every name Builtin resolves, in the order the tools'
// help strings show them.
func BuiltinNames() []string {
	names := []string{"simple", "conduction"}
	for _, k := range All() {
		names = append(names, k.Name)
	}
	return names
}
