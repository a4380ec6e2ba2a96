package smt

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/apint"
	"repro/internal/rng"
)

// shape builds one term; the narrowing tests build each shape twice, in
// a rewriting Builder and in a plain one, and compare the two under Eval.
type shape func(b *Builder) *Term

// sameUnderEval fails t unless s evaluates the same with Builder.Rewrite
// on and off at every assignment of the named variables' widths. It
// returns the rewritten term.
func sameUnderEval(t *testing.T, what string, s shape, widths map[string]int) *Term {
	t.Helper()
	on, off := NewBuilder(), NewBuilder()
	off.Rewrite = false
	got, want := s(on), s(off)
	if got.W != want.W {
		t.Fatalf("%s: rewritten width %d, plain width %d", what, got.W, want.W)
	}
	names := make([]string, 0, len(widths))
	total := 0
	for _, name := range []string{"x", "y"} {
		if w, ok := widths[name]; ok {
			names = append(names, name)
			total += w
		}
	}
	env := map[string]uint64{}
	for in := uint64(0); in < 1<<uint(total); in++ {
		shift := 0
		for _, name := range names {
			env[name] = in >> uint(shift) & apint.Mask(widths[name])
			shift += widths[name]
		}
		if g, w := Eval(got, env), Eval(want, env); g != w {
			t.Fatalf("%s at %v: rewritten %s = %d, plain %s = %d", what, env, got, g, want, w)
		}
	}
	return got
}

// extensions returns the operand shapes the narrowing rules look
// through: variable v of width n extended to width w, directly or
// through an intermediate width, by zext, sext or a mix.
func extensions(v string, n, w int) map[string]shape {
	out := map[string]shape{
		"zext": func(b *Builder) *Term { return b.ZExt(b.Var(n, v), w) },
		"sext": func(b *Builder) *Term { return b.SExt(b.Var(n, v), w) },
	}
	if m := n + 1; m < w {
		for _, outer := range []Op{OpZExt, OpSExt} {
			for _, inner := range []Op{OpZExt, OpSExt} {
				name := fmt.Sprintf("%s(%s@%d)", opNames[outer], opNames[inner], m)
				out[name] = func(b *Builder) *Term { return b.extend(outer, b.extend(inner, b.Var(n, v), m), w) }
			}
		}
	}
	return out
}

var narrowOps = map[string]func(b *Builder, x, y *Term) *Term{
	"udiv": (*Builder).UDiv, "urem": (*Builder).URem, "ult": (*Builder).Ult,
	"sdiv": (*Builder).SDiv, "srem": (*Builder).SRem, "slt": (*Builder).Slt,
	"eq": (*Builder).Eq, "lshr": (*Builder).LShr,
}

// widestDivOrCmp returns the widest operand of any division, remainder
// or lshr in t, and of any comparison too when cmp is set; 0 when there
// is none.
func widestDivOrCmp(t *Term, cmp bool) int {
	widest := 0
	seen := map[*Term]bool{}
	var walk func(*Term)
	walk = func(t *Term) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t.Op {
		case OpUlt, OpSlt, OpEq:
			if !cmp {
				break
			}
			fallthrough
		case OpUDiv, OpURem, OpSDiv, OpSRem, OpLShr:
			widest = max(widest, t.Args[0].W)
		}
		for _, a := range t.Args {
			walk(a)
		}
	}
	walk(t)
	return widest
}

// divOps are the narrowOps whose result has the operands' width.
var divOps = []string{"udiv", "urem", "sdiv", "srem", "lshr"}

// dividendOnly are the divOps that narrow when only their first operand
// is narrow.
var dividendOnly = map[string]bool{"udiv": true, "urem": true, "lshr": true}

// sameExtractsUnderEval checks every [hi:lo] extract of s with
// sameUnderEval.
func sameExtractsUnderEval(t *testing.T, what string, s shape, w int, widths map[string]int) {
	t.Helper()
	for hi := 0; hi < w; hi++ {
		for lo := 0; lo <= hi; lo++ {
			ext := func(b *Builder) *Term { return b.Extract(s(b), hi, lo) }
			sameUnderEval(t, fmt.Sprintf("[%d:%d] of %s", hi, lo, what), ext, widths)
		}
	}
}

// TestNarrowingExhaustive checks every narrowing rule of the Builder
// against the unrewritten term under Eval, on every input: extensions of
// extensions, every [hi:lo] extract of an extension, and udiv, urem,
// ult, sdiv, srem, slt, eq and lshr over extended operands (operand
// widths 1–4, result widths up to 7) and over one extended operand and
// every constant of the result width, 0, INT_MIN and -1 among them.
// Each same-kind pair of extended operands must also actually narrow:
// no division, shift or comparison is left at the result width. So must
// every operator over a zext and a constant with its sign bit clear
// (lshr only when it shifts the zext): sdiv, srem and slt over such
// non-negative operands, and over two zexts, narrow through udiv, urem
// and ult. The divisions, remainders and lshr are also checked with a
// narrow first operand (extended or constant) over a full-width
// variable second one, where udiv, urem and lshr of a zext must keep no
// operation wider than the zext's operand, and udiv and urem of a
// constant none wider than its significant width; and every extract of
// a narrowed division, remainder or shift, which reaches the
// extract-through-ite and sdiv trunc-back rules.
func TestNarrowingExhaustive(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for w := n; w <= 7; w++ {
			for name, ext := range extensions("x", n, w) {
				vars := map[string]int{"x": n}
				sameUnderEval(t, fmt.Sprintf("%s i%d to i%d", name, n, w), ext, vars)
				sameExtractsUnderEval(t, fmt.Sprintf("%s i%d to i%d", name, n, w), ext, w, vars)
				for opName, op := range narrowOps {
					for c := uint64(0); c <= apint.Mask(w); c++ {
						what := fmt.Sprintf("%s(%s i%d to i%d, %d)", opName, name, n, w, c)
						left := sameUnderEval(t, what, func(b *Builder) *Term { return op(b, ext(b), b.Const(w, c)) }, vars)
						what = fmt.Sprintf("%s(%d, %s i%d to i%d)", opName, c, name, n, w)
						right := sameUnderEval(t, what, func(b *Builder) *Term { return op(b, b.Const(w, c), ext(b)) }, vars)
						if name == "zext" && n < w && !apint.SignBit(c, w) {
							narrowed := []*Term{left, right}
							if opName == "lshr" {
								narrowed = narrowed[:1] // only a shifted zext narrows
							}
							for _, got := range narrowed {
								if widest := widestDivOrCmp(got, true); widest >= w {
									t.Errorf("%s: rewritten %s keeps an i%d operation", what, got, widest)
								}
							}
						}
					}
				}
				vars = map[string]int{"x": n, "y": w}
				for _, opName := range divOps {
					op := narrowOps[opName]
					s := func(b *Builder) *Term { return op(b, ext(b), b.Var(w, "y")) }
					what := fmt.Sprintf("%s(%s i%d to i%d, y)", opName, name, n, w)
					got := sameUnderEval(t, what, s, vars)
					if name == "zext" || name == "sext" {
						sameExtractsUnderEval(t, what, s, w, vars)
					}
					if dividendOnly[opName] && name == "zext" && n < w {
						if widest := widestDivOrCmp(got, false); widest > n {
							t.Errorf("%s: rewritten %s keeps an i%d divider", what, got, widest)
						}
					}
				}
			}
		}
	}
	for w := 1; w <= 7; w++ {
		vars := map[string]int{"y": w}
		for c := uint64(0); c <= apint.Mask(w); c++ {
			for _, opName := range divOps {
				op := narrowOps[opName]
				s := func(b *Builder) *Term { return op(b, b.Const(w, c), b.Var(w, "y")) }
				what := fmt.Sprintf("%s(%d, y) at i%d", opName, c, w)
				got := sameUnderEval(t, what, s, vars)
				sameExtractsUnderEval(t, what, s, w, vars)
				if opName == "udiv" || opName == "urem" {
					if widest := widestDivOrCmp(got, false); widest > max(1, bits.Len64(c)) {
						t.Errorf("%s: rewritten %s keeps an i%d divider", what, got, widest)
					}
				}
			}
		}
		vars = map[string]int{"x": w, "y": w}
		for _, tested := range []string{"y", "x"} {
			for _, zeroFirst := range []bool{false, true} {
				what := fmt.Sprintf("ite(%s = 0, all-ones, udiv(x, y)) at i%d, zero interned first %v", tested, w, zeroFirst)
				got := sameUnderEval(t, what, func(b *Builder) *Term {
					if zeroFirst {
						b.Const(w, 0) // Eq orders its operands by creation
					}
					x, y := b.Var(w, "x"), b.Var(w, "y")
					return b.Ite(b.Eq(b.Var(w, tested), b.Const(w, 0)), b.Const(w, apint.Mask(w)), b.UDiv(x, y))
				}, vars)
				if tested == "y" && got.Op != OpUDiv {
					t.Errorf("%s: rewritten to %s, not the udiv", what, got)
				}
			}
		}
	}
	for nx := 1; nx <= 4; nx++ {
		for ny := 1; ny <= 4; ny++ {
			for w := max(nx, ny); w <= 7; w++ {
				vars := map[string]int{"x": nx, "y": ny}
				for xName, xs := range extensions("x", nx, w) {
					for yName, ys := range extensions("y", ny, w) {
						for opName, op := range narrowOps {
							s := func(b *Builder) *Term { return op(b, xs(b), ys(b)) }
							what := fmt.Sprintf("%s(%s i%d, %s i%d) at i%d", opName, xName, nx, yName, ny, w)
							got := sameUnderEval(t, what, s, vars)
							n := max(nx, ny)
							if opName == "sdiv" && xName == "sext" {
								n++
							}
							simple := (xName == "zext" || xName == "sext") && (yName == "zext" || yName == "sext")
							if simple && got.W == w {
								sameExtractsUnderEval(t, what, s, w, vars)
							}
							if xName == yName && simple && n < w {
								// Over zext operands every operator narrows, the
								// signed ones through their unsigned twins; over
								// sext operands the signed ones and eq do.
								if opName == "eq" || xName == "zext" || opName[0] == 's' {
									if widest := widestDivOrCmp(got, true); widest >= w {
										t.Errorf("%s: rewritten %s keeps an i%d operation", what, got, widest)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestOutOfRangeExtensionCompares checks the out-of-range rule against
// the unrewritten term under Eval at every input, for result widths up to
// 6: eq, ult and slt between a zext or sext of an n-bit variable and
// every constant, in both operand orders. Where the constant does not fit
// n bits read as the extension reads it, eq of either extension, ult of
// a zext and slt of a sext must fold to a constant.
func TestOutOfRangeExtensionCompares(t *testing.T) {
	folds := map[string]string{"eq": "", "ult": "zext", "slt": "sext"}
	for w := 2; w <= 6; w++ {
		for n := 1; n < w; n++ {
			vars := map[string]int{"x": n}
			for _, kind := range []string{"zext", "sext"} {
				ext := extensions("x", n, w)[kind]
				for opName, need := range folds {
					op := narrowOps[opName]
					for c := uint64(0); c <= apint.Mask(w); c++ {
						cw, _ := significantWidth(&Term{Op: OpConst, W: w, Val: c}, kind == "sext")
						for _, extFirst := range []bool{true, false} {
							s := func(b *Builder) *Term { return op(b, b.Const(w, c), ext(b)) }
							if extFirst {
								s = func(b *Builder) *Term { return op(b, ext(b), b.Const(w, c)) }
							}
							what := fmt.Sprintf("%s(%s i%d to i%d, %d), extension first %t", opName, kind, n, w, c, extFirst)
							got := sameUnderEval(t, what, s, vars)
							if _, isConst := got.IsConst(); cw > n && (need == "" || need == kind) && !isConst {
								t.Errorf("%s: %d needs %d bits, but the comparison is rewritten to %s", what, c, cw, got)
							}
						}
					}
				}
			}
		}
	}
}

// TestFoldComplements: x ∧ ¬x folds to 0 and x ∨ ¬x to all-ones, in
// either operand order, at bv1 and wider, and so do x ∧ (y ∧ ¬x) and
// x ∨ (y ∨ ¬x) with the complement at either depth and on either side;
// x ∧ ¬y and x ∧ (y ∨ ¬x) do not fold.
func TestFoldComplements(t *testing.T) {
	for _, w := range []int{1, 8} {
		b := NewBuilder()
		x, y := b.Var(w, "x"), b.Var(w, "y")
		for what, c := range map[string]struct {
			got  *Term
			want uint64
		}{
			"x ∧ ¬x": {b.And(x, b.Not(x)), 0},
			"¬x ∧ x": {b.And(b.Not(x), x), 0},
			"x ∨ ¬x": {b.Or(x, b.Not(x)), apint.Mask(w)},
			"¬x ∨ x": {b.Or(b.Not(x), x), apint.Mask(w)},

			"x ∧ (y ∧ ¬x)": {b.And(x, b.And(y, b.Not(x))), 0},
			"(¬x ∧ y) ∧ x": {b.And(b.And(b.Not(x), y), x), 0},
			"¬x ∧ (x ∧ y)": {b.And(b.Not(x), b.And(x, y)), 0},
			"x ∨ (y ∨ ¬x)": {b.Or(x, b.Or(y, b.Not(x))), apint.Mask(w)},
			"(x ∨ y) ∨ ¬x": {b.Or(b.Or(x, y), b.Not(x)), apint.Mask(w)},
		} {
			if v, ok := c.got.IsConst(); !ok || v != c.want {
				t.Errorf("i%d %s: rewritten to %s, want %d", w, what, c.got, c.want)
			}
		}
		if got := b.And(x, b.Not(y)); got.Op != OpAnd {
			t.Errorf("i%d x ∧ ¬y: rewritten to %s", w, got)
		}
		if got := b.And(x, b.Or(y, b.Not(x))); got.Op != OpAnd {
			t.Errorf("i%d x ∧ (y ∨ ¬x): rewritten to %s", w, got)
		}
	}
}

// TestNarrowingPromotedDivision: the promote pass's widened `udiv i8`,
// `urem i8`, `sdiv i8` and `srem i8` fold back to the narrow term itself,
// so a query comparing the two is decided without a solver. The same
// holds for a division promoted to any wider width and truncated back.
func TestNarrowingPromotedDivision(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var(8, "x"), b.Var(8, "y")
	for name, c := range map[string]struct{ narrow, wide *Term }{
		"udiv":         {b.UDiv(x, y), b.Trunc(b.UDiv(b.ZExt(x, 32), b.ZExt(y, 32)), 8)},
		"urem":         {b.URem(x, y), b.Trunc(b.URem(b.ZExt(x, 32), b.ZExt(y, 32)), 8)},
		"sdiv":         {b.SDiv(x, y), b.Trunc(b.SDiv(b.SExt(x, 32), b.SExt(y, 32)), 8)},
		"sdiv at i9":   {b.SDiv(x, y), b.Trunc(b.SDiv(b.SExt(x, 9), b.SExt(y, 9)), 8)},
		"srem":         {b.SRem(x, y), b.Trunc(b.SRem(b.SExt(x, 32), b.SExt(y, 32)), 8)},
		"srem via i16": {b.SRem(x, y), b.Trunc(b.SRem(b.SExt(b.SExt(x, 16), 32), b.SExt(y, 32)), 8)},
	} {
		if !b.Eq(c.narrow, c.wide).IsTrue() {
			t.Errorf("%s: %s and %s did not fold equal", name, c.narrow, c.wide)
		}
	}
}

// FuzzRewriteAgainstEval replays one termFromBytes program into a
// rewriting Builder and a plain one and requires Eval to agree on the
// two terms under a fuzz-chosen assignment.
func FuzzRewriteAgainstEval(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		r := rng.New(seed)
		data := make([]byte, 8+r.Intn(40))
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		f.Add(data)
	}
	// eq, ult and slt of a zext or sext from (w+1)/2 bits and a constant
	// outside its range, in both operand orders: byte 0 picks i8 or i32,
	// three bytes give the variables, then ops 2 (push z), 3 c (push a
	// constant), 28 (push x; 0 would end the program), 22/23 (zext/sext
	// of x's low half), and 21/19/20 (an ite on eq/ult/slt of the top
	// two).
	// Then a complement one level down: x, ¬x, y, y ∧ ¬x, x, x ∧ (y ∧ ¬x),
	// and the same with ∨.
	for _, prog := range [][]byte{
		{0, 4, 1, 9, 28, 9},
		{0, 4, 1, 10, 28, 10},
		{2, 3, 1, 28, 22, 21},
		{2, 3, 1, 28, 23, 21},
		{3, 1, 28, 22, 19},
		{28, 22, 3, 1, 19},
		{3, 1, 28, 23, 20},
		{3, 7, 28, 23, 20},
		{28, 23, 3, 7, 20},
	} {
		for _, width := range []byte{2, 3} {
			f.Add(append([]byte{width, 0x5a, 0x11, 0x33}, prog...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := []int{1, 3, 8, 32}[data[0]%4]
		terms := make([]*Term, 2)
		env := map[string]uint64{}
		for i, rewrite := range []bool{true, false} {
			rest := data[1:]
			next := func() uint64 {
				if len(rest) == 0 {
					return 0
				}
				v := rest[0]
				rest = rest[1:]
				return uint64(v)
			}
			b := NewBuilder()
			b.Rewrite = rewrite
			vars := []*Term{b.Var(w, "x"), b.Var(w, "y"), b.Var(w, "z")}
			for _, v := range vars {
				env[v.Name] = (next() * 0x9e3779b97f4a7c15) & apint.Mask(w)
			}
			terms[i] = termFromBytes(b, vars, next)
		}
		if got, want := Eval(terms[0], env), Eval(terms[1], env); got != want {
			t.Fatalf("at %v: rewritten %s = %d, plain %s = %d", env, terms[0], got, terms[1], want)
		}
	})
}
