package idlang_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/sim"
)

// exprGen builds a random Idlite expression over float bindings while
// simultaneously computing its value, so generated programs come with their
// own oracle. All generated values stay in a safe range to keep float64
// arithmetic exact enough for == comparison after identical operation
// order (the pipeline performs the same operations in the same order).
type exprGen struct {
	rng   *rand.Rand
	binds []string  // names of bound variables
	vals  []float64 // their values
	buf   strings.Builder
	n     int
}

func (g *exprGen) expr(depth int) (string, float64) {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		// Leaf: literal or existing binding.
		if len(g.binds) > 0 && g.rng.Intn(2) == 0 {
			i := g.rng.Intn(len(g.binds))
			return g.binds[i], g.vals[i]
		}
		v := float64(g.rng.Intn(200)-100) / 4.0
		return fmt.Sprintf("%g", v), v
	}
	switch g.rng.Intn(7) {
	case 0:
		a, av := g.expr(depth - 1)
		b, bv := g.expr(depth - 1)
		return fmt.Sprintf("(%s + %s)", a, b), av + bv
	case 1:
		a, av := g.expr(depth - 1)
		b, bv := g.expr(depth - 1)
		return fmt.Sprintf("(%s - %s)", a, b), av - bv
	case 2:
		a, av := g.expr(depth - 1)
		b, bv := g.expr(depth - 1)
		return fmt.Sprintf("(%s * %s)", a, b), av * bv
	case 3:
		a, av := g.expr(depth - 1)
		return fmt.Sprintf("abs(%s)", a), math.Abs(av)
	case 4:
		a, av := g.expr(depth - 1)
		b, bv := g.expr(depth - 1)
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("min(%s, %s)", a, b), math.Min(av, bv)
		}
		return fmt.Sprintf("max(%s, %s)", a, b), math.Max(av, bv)
	case 5:
		c, cv := g.expr(depth - 1)
		d, dv := g.expr(depth - 1)
		a, av := g.expr(depth - 1)
		b, bv := g.expr(depth - 1)
		if cv < dv {
			return fmt.Sprintf("(if %s < %s then %s else %s)", c, d, a, b), av
		}
		return fmt.Sprintf("(if %s < %s then %s else %s)", c, d, a, b), bv
	default:
		// Introduce a binding usable by later sub-expressions.
		a, av := g.expr(depth - 1)
		name := fmt.Sprintf("v%d", g.n)
		g.n++
		fmt.Fprintf(&g.buf, "\t%s = %s;\n", name, a)
		g.binds = append(g.binds, name)
		g.vals = append(g.vals, av)
		return name, av
	}
}

// TestRandomExpressionPrograms pushes random expression programs through
// the full pipeline (frontend → graph → translate → partition → simulator)
// and compares against the value computed during generation.
func TestRandomExpressionPrograms(t *testing.T) {
	f := func(seed int64) bool {
		g := &exprGen{rng: rand.New(rand.NewSource(seed))}
		expr, want := g.expr(5)
		src := fmt.Sprintf("func main() -> float {\n%s\treturn %s;\n}\n", g.buf.String(), expr)

		prog, _, err := core.Compile("rand.id", src, partition.Options{})
		if err != nil {
			t.Logf("seed %d: compile error: %v\nsource:\n%s", seed, err, src)
			return false
		}
		m, err := sim.New(prog, sim.Config{NumPEs: 2})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		res, err := m.Run()
		if err != nil {
			t.Logf("seed %d: run: %v\nsource:\n%s", seed, err, src)
			return false
		}
		if res.MainValue == nil {
			t.Logf("seed %d: no result", seed)
			return false
		}
		got := res.MainValue.F
		if res.MainValue.Kind == "int" {
			got = float64(res.MainValue.I)
		}
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Logf("seed %d: got %v want %v\nsource:\n%s", seed, got, want, src)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomFillPrograms generates random affine 2-D fills with conditional
// writes and checks every element on several PE counts.
func TestRandomFillPrograms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		ai := rng.Intn(7) - 3
		aj := rng.Intn(7) - 3
		c := rng.Intn(20)
		mod := 2 + rng.Intn(3)
		src := fmt.Sprintf(`
func main(n: int) {
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			base = float(%d * i + %d * j + %d);
			if (i + j) %% %d == 0 {
				A[i, j] = base * 2.0;
			} else {
				A[i, j] = base;
			}
		}
	}
}`, ai, aj, c, mod)
		prog, _, err := core.Compile("fill.id", src, partition.Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, pes := range []int{1, 3} {
			m, err := sim.New(prog, sim.Config{NumPEs: pes, PageElems: 8})
			if err != nil {
				return false
			}
			if _, err := m.Run(isa.Int(int64(n))); err != nil {
				t.Logf("seed %d pes %d: %v", seed, pes, err)
				return false
			}
			vals, mask, _, err := m.ReadArray("A")
			if err != nil {
				return false
			}
			for i := 1; i <= n; i++ {
				for j := 1; j <= n; j++ {
					want := float64(ai*i + aj*j + c)
					if (i+j)%mod == 0 {
						want *= 2
					}
					off := (i-1)*n + j - 1
					if !mask[off] || vals[off] != want {
						t.Logf("seed %d pes %d: A[%d,%d]=%v written=%v want %v", seed, pes, i, j, vals[off], mask[off], want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomReductions checks loop-carried sums of random affine series on
// random loop directions against the closed form.
func TestRandomReductions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(1 + rng.Intn(50))
		a := int64(rng.Intn(9) - 4)
		b := int64(rng.Intn(9))
		down := rng.Intn(2) == 1
		dir := "1 to n"
		if down {
			dir = "n downto 1"
		}
		src := fmt.Sprintf(`
func main(n: int) -> int {
	s = 0;
	for k = %s {
		next s = s + (%d * k + %d);
	}
	return s;
}`, dir, a, b)
		var want int64
		for k := int64(1); k <= n; k++ {
			want += a*k + b
		}
		prog, _, err := core.Compile("red.id", src, partition.Options{})
		if err != nil {
			return false
		}
		m, err := sim.New(prog, sim.Config{NumPEs: 1})
		if err != nil {
			return false
		}
		res, err := m.Run(isa.Int(n))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.MainValue == nil || res.MainValue.I != want {
			t.Logf("seed %d: got %+v want %d", seed, res.MainValue, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
