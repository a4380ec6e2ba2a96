package smt

import (
	"testing"

	"repro/internal/apint"
	"repro/internal/rng"
	"repro/internal/sat"
)

// TestGateHashing pins the gate table's normal forms: commuted AND
// inputs, an XOR with a negated input and a MUX with a negated select
// each reuse the gate already built, and a full adder builds its x⊕y
// once.
func TestGateHashing(t *testing.T) {
	bl := NewBlast(sat.New())
	x, y, c := bl.fresh(), bl.fresh(), bl.fresh()
	if a, b := bl.mkAnd(x, y), bl.mkAnd(y, x); a != b {
		t.Errorf("mkAnd(x,y) = %d, mkAnd(y,x) = %d", a, b)
	}
	if a, b := bl.mkXor(x.Neg(), y), bl.mkXor(x, y).Neg(); a != b {
		t.Errorf("mkXor(¬x,y) = %d, ¬mkXor(x,y) = %d", a, b)
	}
	if a, b := bl.mkXor(x.Neg(), y.Neg()), bl.mkXor(y, x); a != b {
		t.Errorf("mkXor(¬x,¬y) = %d, mkXor(y,x) = %d", a, b)
	}
	if a, b := bl.mkMux(c.Neg(), x, y), bl.mkMux(c, y, x); a != b {
		t.Errorf("mkMux(¬c,x,y) = %d, mkMux(c,y,x) = %d", a, b)
	}

	bl = NewBlast(sat.New())
	x, y, c = bl.fresh(), bl.fresh(), bl.fresh()
	before := bl.S.NumVars()
	bl.fullAdder(x, y, c)
	if minted := bl.S.NumVars() - before; minted != 5 {
		t.Errorf("fullAdder minted %d variables, want 5 (x⊕y built once)", minted)
	}
}

// TestDivRemSharesOneCircuit: a urem (srem) blasted after the udiv
// (sdiv) over the same operands finds every gate of the long-division
// circuit in the gate table, so it adds no variable and no clause.
func TestDivRemSharesOneCircuit(t *testing.T) {
	for _, signed := range []bool{false, true} {
		b := NewBuilder()
		b.Rewrite = false
		x, y := b.Var(8, "x"), b.Var(8, "y")
		div, rem := b.UDiv(x, y), b.URem(x, y)
		if signed {
			div, rem = b.SDiv(x, y), b.SRem(x, y)
		}
		bl := NewBlast(sat.New())
		bl.Bits(div)
		vars, clauses := bl.S.NumVars(), bl.S.NumClauses()
		bl.Bits(rem)
		if bl.S.NumVars() != vars || bl.S.NumClauses() != clauses {
			t.Errorf("signed=%v: remainder after quotient added %d variables and %d clauses, want 0 and 0",
				signed, bl.S.NumVars()-vars, bl.S.NumClauses()-clauses)
		}
	}
}

// TestSharedBlastExhaustive blasts two random terms over the same
// variables into one Blast, so the second reuses the first's hashed
// gates, and checks both against Eval at every input assignment of
// widths 1–4: with the input bits assumed, the model must give each term
// its evaluated value. Some pair must actually share gates, or the check
// says nothing about sharing.
func TestSharedBlastExhaustive(t *testing.T) {
	r := rng.New(23)
	shared := 0
	for w := 1; w <= 4; w++ {
		for trial := 0; trial < 6; trial++ {
			b := NewBuilder()
			b.Rewrite = trial%2 == 0
			vars := []*Term{b.Var(w, "x"), b.Var(w, "y"), b.Var(w, "z")}
			terms := []*Term{buildRandomTerm(b, r, vars, 4), buildRandomTerm(b, r, vars, 4)}

			bl := NewBlast(sat.New())
			for _, v := range vars {
				bl.Bits(v)
			}
			bl.Bits(terms[0])
			before := bl.S.NumVars()
			bl.Bits(terms[1])
			alone := NewBlast(sat.New())
			for _, v := range vars {
				alone.Bits(v)
			}
			alone.Bits(terms[1])
			if bl.S.NumVars()-before < alone.S.NumVars()-len(vars)*w-1 {
				shared++
			}

			env := map[string]uint64{}
			assume := make([]sat.Lit, 0, len(vars)*w)
			for in := uint64(0); in < 1<<(uint(len(vars)*w)); in++ {
				assume = assume[:0]
				for i, v := range vars {
					val := in >> uint(i*w) & apint.Mask(w)
					env[v.Name] = val
					for bit, l := range bl.Bits(v) {
						if val>>uint(bit)&1 == 0 {
							l = l.Neg()
						}
						assume = append(assume, l)
					}
				}
				if res := bl.S.Solve(assume...); res != sat.Sat {
					t.Fatalf("w=%d trial=%d: inputs %v: solve gave %v, want Sat", w, trial, env, res)
				}
				for k, term := range terms {
					if got, want := bl.ModelValue(term), Eval(term, env); got != want {
						t.Fatalf("w=%d trial=%d term %d: %s at %v: blasted %d, Eval %d", w, trial, k, term, env, got, want)
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Error("no second term reused a gate of the first; the sharing check is vacuous")
	}
}

// FuzzBlastAgainstEval decodes a term over three variables from the
// input (a small stack machine: one byte per operator, leaves are
// variables or constants) plus pinned input values, and checks that the
// blasted term under those inputs can take no value other than Eval's.
func FuzzBlastAgainstEval(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		r := rng.New(seed)
		data := make([]byte, 8+r.Intn(40))
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64] // keeps a 32-bit term's multipliers affordable
		}
		next := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return uint64(b)
		}
		head := next()
		w := []int{1, 3, 8, 32}[head%4]
		b := NewBuilder()
		b.Rewrite = head&4 != 0
		vars := []*Term{b.Var(w, "x"), b.Var(w, "y"), b.Var(w, "z")}
		env := map[string]uint64{}
		for _, v := range vars {
			env[v.Name] = (next() * 0x9e3779b97f4a7c15) & apint.Mask(w)
		}
		term := termFromBytes(b, vars, next)
		want := Eval(term, env)
		pin := b.Bool(true)
		for _, v := range vars {
			pin = b.And(pin, b.Eq(v, b.Const(w, env[v.Name])))
		}
		var c Checker
		if res, _ := c.Check(b.And(pin, b.Ne(term, b.Const(term.W, want)))); res != Unsat {
			t.Fatalf("%s at %v: blasted term can differ from Eval's %d (%v)", term, env, want, res)
		}
	})
}

// termFromBytes runs the stack machine FuzzBlastAgainstEval and
// FuzzRewriteAgainstEval decode until a zero byte or the end of the
// input. An operator short of operands takes x; the result is the top of
// the stack. Besides the operators, it builds extensions from a
// fuzz-chosen width, nested ones, and extracts of a double-width
// extension at every offset, the shapes the narrowing rewrites match.
func termFromBytes(b *Builder, vars []*Term, next func() uint64) *Term {
	w := vars[0].W
	var stack []*Term
	pop := func() *Term {
		if len(stack) == 0 {
			return vars[0]
		}
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return t
	}
	for op := next(); op != 0 || len(stack) == 0; op = next() {
		if len(stack) > 16 {
			break
		}
		switch op % 27 {
		case 0, 1, 2:
			stack = append(stack, vars[op%27])
		case 3:
			stack = append(stack, b.Const(w, next()*0x9e3779b97f4a7c15))
		case 4:
			stack = append(stack, b.Not(pop()))
		case 5:
			stack = append(stack, b.Neg(pop()))
		case 6:
			stack = append(stack, b.Add(pop(), pop()))
		case 7:
			stack = append(stack, b.Sub(pop(), pop()))
		case 8:
			stack = append(stack, b.Mul(pop(), pop()))
		case 9:
			stack = append(stack, b.And(pop(), pop()))
		case 10:
			stack = append(stack, b.Or(pop(), pop()))
		case 11:
			stack = append(stack, b.Xor(pop(), pop()))
		case 12:
			stack = append(stack, b.Shl(pop(), pop()))
		case 13:
			stack = append(stack, b.LShr(pop(), pop()))
		case 14:
			stack = append(stack, b.AShr(pop(), pop()))
		case 15:
			stack = append(stack, b.UDiv(pop(), pop()))
		case 16:
			stack = append(stack, b.URem(pop(), pop()))
		case 17:
			stack = append(stack, b.SDiv(pop(), pop()))
		case 18:
			stack = append(stack, b.SRem(pop(), pop()))
		case 19:
			x, y := pop(), pop()
			stack = append(stack, b.Ite(b.Ult(x, y), x, y))
		case 20:
			x, y := pop(), pop()
			stack = append(stack, b.Ite(b.Slt(x, y), y, x))
		case 21:
			x, y, z := pop(), pop(), pop()
			stack = append(stack, b.Ite(b.Eq(x, y), z, x))
		case 22:
			stack = append(stack, b.ZExt(b.Trunc(pop(), (w+1)/2), w))
		case 23:
			stack = append(stack, b.SExt(b.Trunc(pop(), (w+1)/2), w))
		case 24, 25:
			ext := b.extend(OpZExt+Op(op%27-24), b.Trunc(pop(), 1+int(next()%uint64(w))), 2*w)
			lo := int(next() % uint64(w+1))
			stack = append(stack, b.Extract(ext, lo+w-1, lo))
		case 26:
			k := 1 + int(next()%uint64(w))
			m := k + int(next()%uint64(w-k+1))
			stack = append(stack, b.SExt(b.ZExt(b.Trunc(pop(), k), m), w))
		}
	}
	return pop()
}
