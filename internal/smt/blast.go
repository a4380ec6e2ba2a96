package smt

import (
	"fmt"
	"math/bits"

	"repro/internal/sat"
)

// Blast lowers bitvector terms onto a SAT solver via Tseitin encoding.
// Each term is memoized to a little-endian slice of literals (bits[0] is
// the LSB), so the shared structure of the hash-consed DAG is preserved in
// the CNF. Below the terms, gates are structurally hashed (Kuehlmann et
// al., "Robust Boolean reasoning for equivalence checking and functional
// property verification", IEEE TCAD 2002): an AND, XOR or MUX over inputs
// already combined the same way reuses the existing output literal, so
// duplicate circuitry — the two x⊕y of a full adder, a udiv and urem over
// the same operands, the parts src and tgt share below differing terms —
// is encoded once.
type Blast struct {
	S    *sat.Solver
	bits map[*Term][]sat.Lit
	// gates maps a normalized gate to its output literal. It is only
	// looked up, never ranged over, so variable numbering stays
	// deterministic. Every entry is a full unconditional Tseitin
	// definition, so reuse would stay sound across the queries of one
	// solver too.
	gates map[gateKey]sat.Lit
	// tru is a literal constrained to be true; constants map to tru or
	// its negation, which lets gate constructors shortcut aggressively.
	tru sat.Lit
}

// gateKey names a gate by its kind and normalized inputs (see mkAnd,
// mkXor and mkMux for the normal forms). AND and XOR leave c zero.
type gateKey struct {
	op      uint8
	a, b, c sat.Lit
}

const (
	gateAnd uint8 = iota
	gateXor
	gateMux
)

// NewBlast creates a blaster over a fresh context in the given solver.
func NewBlast(s *sat.Solver) *Blast {
	b := &Blast{S: s, bits: make(map[*Term][]sat.Lit), gates: make(map[gateKey]sat.Lit)}
	v := s.NewVar()
	b.tru = sat.MkLit(v, false)
	s.AddClause(b.tru)
	return b
}

func (b *Blast) fls() sat.Lit { return b.tru.Neg() }

func (b *Blast) isTrue(l sat.Lit) bool  { return l == b.tru }
func (b *Blast) isFalse(l sat.Lit) bool { return l == b.tru.Neg() }

func (b *Blast) fresh() sat.Lit { return sat.MkLit(b.S.NewVar(), false) }

// hashed returns the output of gate k if it was already built, and
// otherwise a fresh output literal recorded for k with ok=false; the
// caller then adds the gate's defining clauses.
func (b *Blast) hashed(k gateKey) (o sat.Lit, ok bool) {
	if o, ok = b.gates[k]; ok {
		return o, true
	}
	o = b.fresh()
	b.gates[k] = o
	return o, false
}

// mkAnd returns a literal equivalent to x ∧ y. Its normal form sorts the
// two inputs.
func (b *Blast) mkAnd(x, y sat.Lit) sat.Lit {
	switch {
	case b.isFalse(x) || b.isFalse(y):
		return b.fls()
	case b.isTrue(x):
		return y
	case b.isTrue(y):
		return x
	case x == y:
		return x
	case x == y.Neg():
		return b.fls()
	}
	if x > y {
		x, y = y, x
	}
	o, ok := b.hashed(gateKey{op: gateAnd, a: x, b: y})
	if ok {
		return o
	}
	b.S.AddClause(o.Neg(), x)
	b.S.AddClause(o.Neg(), y)
	b.S.AddClause(o, x.Neg(), y.Neg())
	return o
}

// mkOr returns x ∨ y.
func (b *Blast) mkOr(x, y sat.Lit) sat.Lit {
	return b.mkAnd(x.Neg(), y.Neg()).Neg()
}

// mkXor returns x ⊕ y. Its normal form takes both inputs positive and
// sorted, and negates the output when exactly one input was negated
// (¬x ⊕ y = ¬(x ⊕ y)).
func (b *Blast) mkXor(x, y sat.Lit) sat.Lit {
	switch {
	case b.isFalse(x):
		return y
	case b.isFalse(y):
		return x
	case b.isTrue(x):
		return y.Neg()
	case b.isTrue(y):
		return x.Neg()
	case x == y:
		return b.fls()
	case x == y.Neg():
		return b.tru
	}
	flip := x.Sign() != y.Sign()
	x, y = sat.MkLit(x.Var(), false), sat.MkLit(y.Var(), false)
	if x > y {
		x, y = y, x
	}
	o, ok := b.hashed(gateKey{op: gateXor, a: x, b: y})
	if !ok {
		b.S.AddClause(o.Neg(), x, y)
		b.S.AddClause(o.Neg(), x.Neg(), y.Neg())
		b.S.AddClause(o, x, y.Neg())
		b.S.AddClause(o, x.Neg(), y)
	}
	if flip {
		return o.Neg()
	}
	return o
}

// mkMux returns c ? x : y. Its normal form has a positive select: a
// negated one swaps the arms (¬c ? x : y = c ? y : x).
func (b *Blast) mkMux(c, x, y sat.Lit) sat.Lit {
	switch {
	case b.isTrue(c):
		return x
	case b.isFalse(c):
		return y
	case x == y:
		return x
	}
	if c.Sign() {
		c, x, y = c.Neg(), y, x
	}
	o, ok := b.hashed(gateKey{op: gateMux, a: c, b: x, c: y})
	if ok {
		return o
	}
	b.S.AddClause(o.Neg(), c.Neg(), x)
	b.S.AddClause(o.Neg(), c, y)
	b.S.AddClause(o, c.Neg(), x.Neg())
	b.S.AddClause(o, c, y.Neg())
	return o
}

// fullAdder returns (sum, carryOut) of x + y + cin.
func (b *Blast) fullAdder(x, y, cin sat.Lit) (sat.Lit, sat.Lit) {
	sum := b.mkXor(b.mkXor(x, y), cin)
	carry := b.mkOr(b.mkAnd(x, y), b.mkAnd(cin, b.mkXor(x, y)))
	return sum, carry
}

// addBits returns x + y + cin over equal-width little-endian slices.
func (b *Blast) addBits(x, y []sat.Lit, cin sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out
}

// negBits returns two's-complement negation.
func (b *Blast) negBits(x []sat.Lit) []sat.Lit {
	inv := make([]sat.Lit, len(x))
	for i, l := range x {
		inv[i] = l.Neg()
	}
	zero := make([]sat.Lit, len(x))
	for i := range zero {
		zero[i] = b.fls()
	}
	return b.addBits(inv, zero, b.tru)
}

// eqBits returns a literal for bitwise equality.
func (b *Blast) eqBits(x, y []sat.Lit) sat.Lit {
	acc := b.tru
	for i := range x {
		acc = b.mkAnd(acc, b.mkXor(x[i], y[i]).Neg())
	}
	return acc
}

// ultBits returns x <u y via an LSB-to-MSB ripple comparator.
func (b *Blast) ultBits(x, y []sat.Lit) sat.Lit {
	lt := b.fls()
	for i := range x {
		bitLT := b.mkAnd(x[i].Neg(), y[i])
		eq := b.mkXor(x[i], y[i]).Neg()
		lt = b.mkMux(eq, lt, bitLT)
	}
	return lt
}

// Bits lowers t to literals, memoized.
func (b *Blast) Bits(t *Term) []sat.Lit {
	if bs, ok := b.bits[t]; ok {
		return bs
	}
	var out []sat.Lit
	switch t.Op {
	case OpConst:
		out = make([]sat.Lit, t.W)
		for i := range out {
			if t.Val>>uint(i)&1 == 1 {
				out[i] = b.tru
			} else {
				out[i] = b.fls()
			}
		}
	case OpVar:
		out = make([]sat.Lit, t.W)
		for i := range out {
			out[i] = b.fresh()
		}
	case OpNot:
		x := b.Bits(t.Args[0])
		out = make([]sat.Lit, t.W)
		for i := range out {
			out[i] = x[i].Neg()
		}
	case OpNeg:
		out = b.negBits(b.Bits(t.Args[0]))
	case OpAnd, OpOr, OpXor:
		x, y := b.Bits(t.Args[0]), b.Bits(t.Args[1])
		out = make([]sat.Lit, t.W)
		for i := range out {
			switch t.Op {
			case OpAnd:
				out[i] = b.mkAnd(x[i], y[i])
			case OpOr:
				out[i] = b.mkOr(x[i], y[i])
			default:
				out[i] = b.mkXor(x[i], y[i])
			}
		}
	case OpAdd:
		out = b.addBits(b.Bits(t.Args[0]), b.Bits(t.Args[1]), b.fls())
	case OpSub:
		y := b.Bits(t.Args[1])
		inv := make([]sat.Lit, len(y))
		for i, l := range y {
			inv[i] = l.Neg()
		}
		out = b.addBits(b.Bits(t.Args[0]), inv, b.tru)
	case OpMul:
		out = b.mulBits(b.Bits(t.Args[0]), b.Bits(t.Args[1]))
	case OpUDiv, OpURem, OpSDiv, OpSRem:
		signed := t.Op == OpSDiv || t.Op == OpSRem
		q, r := b.divRem(b.Bits(t.Args[0]), b.Bits(t.Args[1]), signed)
		if t.Op == OpUDiv || t.Op == OpSDiv {
			out = q
		} else {
			out = r
		}
	case OpShl, OpLShr, OpAShr:
		out = b.shift(t.Op, b.Bits(t.Args[0]), b.Bits(t.Args[1]))
	case OpEq:
		out = []sat.Lit{b.eqBits(b.Bits(t.Args[0]), b.Bits(t.Args[1]))}
	case OpUlt:
		out = []sat.Lit{b.ultBits(b.Bits(t.Args[0]), b.Bits(t.Args[1]))}
	case OpSlt:
		x, y := b.Bits(t.Args[0]), b.Bits(t.Args[1])
		// slt(x,y) = ult(x ⊕ signbit, y ⊕ signbit)
		fx := append(append([]sat.Lit(nil), x[:len(x)-1]...), x[len(x)-1].Neg())
		fy := append(append([]sat.Lit(nil), y[:len(y)-1]...), y[len(y)-1].Neg())
		out = []sat.Lit{b.ultBits(fx, fy)}
	case OpIte:
		c := b.Bits(t.Args[0])[0]
		x, y := b.Bits(t.Args[1]), b.Bits(t.Args[2])
		out = make([]sat.Lit, t.W)
		for i := range out {
			out[i] = b.mkMux(c, x[i], y[i])
		}
	case OpZExt:
		x := b.Bits(t.Args[0])
		out = make([]sat.Lit, t.W)
		copy(out, x)
		for i := len(x); i < t.W; i++ {
			out[i] = b.fls()
		}
	case OpSExt:
		x := b.Bits(t.Args[0])
		out = make([]sat.Lit, t.W)
		copy(out, x)
		for i := len(x); i < t.W; i++ {
			out[i] = x[len(x)-1]
		}
	case OpExtract:
		x := b.Bits(t.Args[0])
		out = append([]sat.Lit(nil), x[t.Aux2:t.Aux+1]...)
	default:
		panic(fmt.Sprintf("smt: blast of unknown op %v", t.Op))
	}
	if len(out) != t.W {
		panic(fmt.Sprintf("smt: blast width mismatch for %s: got %d want %d", opNames[t.Op], len(out), t.W))
	}
	b.bits[t] = out
	return out
}

// blastVars estimates the SAT variables Bits creates for t's own
// circuit, one per gate of its lowering that no constant input removes:
// a full adder is five gates (three beside a constant), a comparator
// three per bit (one against a constant), a multiplier an adder per
// multiplier bit, and long division a comparator, a subtractor and a mux
// per bit per step, over a remainder register whose upper half is known
// zero for the first half of the steps. Gate hashing removes more.
func blastVars(t *Term) int {
	if len(t.Args) == 0 {
		if t.Op == OpVar {
			return t.W
		}
		return 0
	}
	w := t.Args[len(t.Args)-1].W
	konst := false
	for _, a := range t.Args {
		konst = konst || a.Op == OpConst
	}
	switch t.Op {
	case OpAnd, OpOr, OpXor:
		if konst {
			return 0
		}
		return w
	case OpIte:
		return w
	case OpNeg:
		return 2 * w
	case OpEq, OpUlt, OpSlt:
		if konst {
			return w
		}
		return 3 * w
	case OpAdd, OpSub:
		if konst {
			return 3 * w
		}
		return 5 * w
	case OpMul:
		if c, ok := t.Args[1].IsConst(); ok {
			return 3 * w * bits.OnesCount64(c)
		}
		if konst {
			return 3 * w * w
		}
		return 5 * w * w
	case OpUDiv, OpURem, OpSDiv, OpSRem:
		n := 5 * w * w
		if t.Args[1].Op == OpConst {
			n = 3 * w * w
		}
		if t.Op == OpSDiv || t.Op == OpSRem {
			n += 12 * w
		}
		return n
	case OpShl, OpLShr, OpAShr:
		if t.Args[1].Op == OpConst {
			return 0
		}
		return bits.Len(uint(w))*w + 4*w
	}
	return 0
}

// mulBits implements shift-and-add multiplication.
func (b *Blast) mulBits(x, y []sat.Lit) []sat.Lit {
	w := len(x)
	acc := make([]sat.Lit, w)
	for i := range acc {
		acc[i] = b.fls()
	}
	for i := 0; i < w; i++ {
		// partial = (x << i) & y[i]
		partial := make([]sat.Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				partial[j] = b.fls()
			} else {
				partial[j] = b.mkAnd(x[j-i], y[i])
			}
		}
		acc = b.addBits(acc, partial, b.fls())
	}
	return acc
}

// udivurem implements restoring long division, with the SMT-LIB
// conventions for a zero divisor (quotient all-ones, remainder = dividend).
func (b *Blast) udivurem(a, d []sat.Lit) (q, r []sat.Lit) {
	w := len(a)
	q = make([]sat.Lit, w)
	r = make([]sat.Lit, w)
	for i := range r {
		r[i] = b.fls()
	}
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | a[i]
		nr := make([]sat.Lit, w)
		nr[0] = a[i]
		copy(nr[1:], r[:w-1])
		r = nr
		ge := b.ultBits(r, d).Neg() // r >= d
		q[i] = ge
		// r = ge ? r - d : r
		inv := make([]sat.Lit, w)
		for j, l := range d {
			inv[j] = l.Neg()
		}
		sub := b.addBits(r, inv, b.tru)
		for j := 0; j < w; j++ {
			r[j] = b.mkMux(ge, sub[j], r[j])
		}
	}
	// Zero divisor fixups.
	dz := b.eqZero(d)
	for i := 0; i < w; i++ {
		q[i] = b.mkMux(dz, b.tru, q[i]) // all-ones
		r[i] = b.mkMux(dz, a[i], r[i])
	}
	return q, r
}

func (b *Blast) eqZero(x []sat.Lit) sat.Lit {
	acc := b.tru
	for _, l := range x {
		acc = b.mkAnd(acc, l.Neg())
	}
	return acc
}

// divRem returns the quotient/remainder circuit of x by y. A udiv and a
// urem (or sdiv and srem) over the same operands build one long-division
// circuit, not two: the second call finds every gate in the gate table.
// Signed division lowers through unsigned division on magnitudes with
// sign corrections; the SMT-LIB zero-divisor cases fall out of
// udivurem's conventions (see the derivation in the package tests).
func (b *Blast) divRem(x, y []sat.Lit, signed bool) (q, r []sat.Lit) {
	if !signed {
		return b.udivurem(x, y)
	}
	w := len(x)
	sx, sy := x[w-1], y[w-1]
	ux := b.muxBits(sx, b.negBits(x), x)
	uy := b.muxBits(sy, b.negBits(y), y)
	q, r = b.udivurem(ux, uy)
	qneg := b.mkXor(sx, sy)
	return b.muxBits(qneg, b.negBits(q), q), b.muxBits(sx, b.negBits(r), r)
}

func (b *Blast) muxBits(c sat.Lit, x, y []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i := range out {
		out[i] = b.mkMux(c, x[i], y[i])
	}
	return out
}

// shift implements the three shifts with a barrel shifter over the low
// log2(w) amount bits, plus an out-of-range guard comparing the full
// amount against the width.
func (b *Blast) shift(op Op, x, amt []sat.Lit) []sat.Lit {
	w := len(x)
	stages := 0
	for 1<<uint(stages) < w {
		stages++
	}
	cur := append([]sat.Lit(nil), x...)
	for k := 0; k < stages && k < len(amt); k++ {
		sh := 1 << uint(k)
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			switch op {
			case OpShl:
				if i >= sh {
					shifted = cur[i-sh]
				} else {
					shifted = b.fls()
				}
			case OpLShr:
				if i+sh < w {
					shifted = cur[i+sh]
				} else {
					shifted = b.fls()
				}
			default: // AShr
				if i+sh < w {
					shifted = cur[i+sh]
				} else {
					shifted = cur[w-1]
				}
			}
			next[i] = b.mkMux(amt[k], shifted, cur[i])
		}
		cur = next
	}
	// Out of range: amount >= w.
	wConst := make([]sat.Lit, len(amt))
	for i := range wConst {
		if uint64(w)>>uint(i)&1 == 1 {
			wConst[i] = b.tru
		} else {
			wConst[i] = b.fls()
		}
	}
	// When the amount width can't even represent w (w == 2^amtbits is
	// impossible since amt has the same width as x; len(amt) == w and
	// 2^w > w always), this comparison is still well-defined.
	inRange := b.ultBits(amt, wConst)
	var fill sat.Lit
	if op == OpAShr {
		fill = x[w-1]
	} else {
		fill = b.fls()
	}
	out := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		out[i] = b.mkMux(inRange, cur[i], fill)
	}
	return out
}

// AssertTrue constrains a bv1 term to be 1.
func (b *Blast) AssertTrue(t *Term) {
	if t.W != 1 {
		panic("smt: AssertTrue on non-bv1 term")
	}
	b.S.AddClause(b.Bits(t)[0])
}

// ModelValue reads the value of any already-blasted term out of the most
// recent Sat model.
func (b *Blast) ModelValue(t *Term) uint64 {
	bs, ok := b.bits[t]
	if !ok {
		panic("smt: ModelValue of unblasted term " + t.String())
	}
	var v uint64
	for i, l := range bs {
		bit := b.S.Value(l.Var())
		if l.Sign() {
			bit = !bit
		}
		if bit {
			v |= 1 << uint(i)
		}
	}
	return v
}
