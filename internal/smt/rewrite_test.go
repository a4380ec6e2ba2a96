package smt

import (
	"fmt"
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
	"eq": (*Builder).Eq,
}

// widestDivOrCmp returns the widest operand of any division, remainder
// or comparison in t, 0 when there is none.
func widestDivOrCmp(t *Term) int {
	widest := 0
	seen := map[*Term]bool{}
	var walk func(*Term)
	walk = func(t *Term) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t.Op {
		case OpUDiv, OpURem, OpSDiv, OpSRem, OpUlt, OpSlt, OpEq:
			widest = max(widest, t.Args[0].W)
		}
		for _, a := range t.Args {
			walk(a)
		}
	}
	walk(t)
	return widest
}

// TestNarrowingExhaustive checks every narrowing rule of the Builder
// against the unrewritten term under Eval, on every input: extensions of
// extensions, every [hi:lo] extract of an extension, and udiv, urem,
// ult, sdiv, srem, slt and eq over extended operands (operand widths
// 1–4, result widths up to 7) and over one extended operand and every
// constant of the result width, 0, INT_MIN and -1 among them. Each
// same-kind pair of extended operands must also actually narrow: no
// division or comparison is left at the result width.
func TestNarrowingExhaustive(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for w := n; w <= 7; w++ {
			for name, ext := range extensions("x", n, w) {
				vars := map[string]int{"x": n}
				sameUnderEval(t, fmt.Sprintf("%s i%d to i%d", name, n, w), ext, vars)
				for hi := 0; hi < w; hi++ {
					for lo := 0; lo <= hi; lo++ {
						what := fmt.Sprintf("[%d:%d] of %s i%d to i%d", hi, lo, name, n, w)
						sameUnderEval(t, what, func(b *Builder) *Term { return b.Extract(ext(b), hi, lo) }, vars)
					}
				}
				for opName, op := range narrowOps {
					for c := uint64(0); c <= apint.Mask(w); c++ {
						what := fmt.Sprintf("%s(%s i%d to i%d, %d)", opName, name, n, w, c)
						sameUnderEval(t, what, func(b *Builder) *Term { return op(b, ext(b), b.Const(w, c)) }, vars)
						what = fmt.Sprintf("%s(%d, %s i%d to i%d)", opName, c, name, n, w)
						sameUnderEval(t, what, func(b *Builder) *Term { return op(b, b.Const(w, c), ext(b)) }, vars)
					}
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
							what := fmt.Sprintf("%s(%s i%d, %s i%d) at i%d", opName, xName, nx, yName, ny, w)
							got := sameUnderEval(t, what, func(b *Builder) *Term { return op(b, xs(b), ys(b)) }, vars)
							n := max(nx, ny)
							if opName == "sdiv" {
								n++
							}
							if xName == yName && (xName == "zext" || xName == "sext") && n < w {
								signed := opName[0] == 's'
								if opName == "eq" || signed == (xName == "sext") {
									if widest := widestDivOrCmp(got); widest >= w {
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

// TestNarrowingPromotedDivision: the promote pass's widened `urem i8`
// and `srem i8` fold back to the narrow term itself, so a query comparing
// the two is decided without a solver; the widened `udiv i8` keeps an i8
// zero-divisor test but no i32 divider.
func TestNarrowingPromotedDivision(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var(8, "x"), b.Var(8, "y")
	for name, c := range map[string]struct{ narrow, wide *Term }{
		"urem":         {b.URem(x, y), b.Trunc(b.URem(b.ZExt(x, 32), b.ZExt(y, 32)), 8)},
		"srem":         {b.SRem(x, y), b.Trunc(b.SRem(b.SExt(x, 32), b.SExt(y, 32)), 8)},
		"srem via i16": {b.SRem(x, y), b.Trunc(b.SRem(b.SExt(b.SExt(x, 16), 32), b.SExt(y, 32)), 8)},
	} {
		if !b.Eq(c.narrow, c.wide).IsTrue() {
			t.Errorf("%s: %s and %s did not fold equal", name, c.narrow, c.wide)
		}
	}
	udiv := b.Trunc(b.UDiv(b.ZExt(x, 32), b.ZExt(y, 32)), 8)
	if widest := widestDivOrCmp(udiv); widest != 8 {
		t.Errorf("udiv: %s has an i%d operation, want i8 at most", udiv, widest)
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
