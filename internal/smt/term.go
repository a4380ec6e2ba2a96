// Package smt implements a quantifier-free bitvector (QF_BV) theory layer:
// hash-consed term DAGs with algebraic rewriting, a concrete evaluator,
// and a Tseitin bit-blaster onto internal/sat.
//
// Together with internal/sat it fills the role Z3 plays for Alive2 in the
// paper's system. Booleans are represented as width-1 bitvectors, so every
// formula is itself a term.
package smt

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/apint"
)

// Op is a term constructor tag.
type Op int

// Term operators. Division and remainder follow SMT-LIB total semantics
// for zero divisors (bvudiv x 0 = all-ones, bvurem x 0 = x, bvsdiv x 0 =
// x<0 ? 1 : -1, bvsrem x 0 = x); the IR semantics layer guards real
// divisions with explicit UB conditions before these are reachable.
const (
	OpConst Op = iota // Val, no args
	OpVar             // Name, no args

	OpNot // bitwise complement
	OpAnd
	OpOr
	OpXor

	OpNeg
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpURem
	OpSDiv
	OpSRem

	OpShl
	OpLShr
	OpAShr

	OpEq  // -> bv1
	OpUlt // -> bv1
	OpSlt // -> bv1

	OpIte // (bv1, T, T) -> T

	OpZExt    // widen, Aux = result width
	OpSExt    // widen, Aux = result width
	OpExtract // Aux = hi, Aux2 = lo
)

var opNames = map[Op]string{
	OpConst: "const", OpVar: "var",
	OpNot: "bvnot", OpAnd: "bvand", OpOr: "bvor", OpXor: "bvxor",
	OpNeg: "bvneg", OpAdd: "bvadd", OpSub: "bvsub", OpMul: "bvmul",
	OpUDiv: "bvudiv", OpURem: "bvurem", OpSDiv: "bvsdiv", OpSRem: "bvsrem",
	OpShl: "bvshl", OpLShr: "bvlshr", OpAShr: "bvashr",
	OpEq: "=", OpUlt: "bvult", OpSlt: "bvslt",
	OpIte: "ite", OpZExt: "zext", OpSExt: "sext", OpExtract: "extract",
}

// Term is an immutable, hash-consed bitvector term. Terms are created
// through a Builder; two structurally equal terms from the same Builder
// are pointer-equal.
type Term struct {
	Op   Op
	W    int // result width in bits
	Args []*Term
	Val  uint64 // OpConst
	Name string // OpVar
	Aux  int    // OpZExt/OpSExt: target width; OpExtract: hi
	Aux2 int    // OpExtract: lo
	id   uint64
}

// IsConst reports whether t is a constant, returning its value.
func (t *Term) IsConst() (uint64, bool) {
	if t.Op == OpConst {
		return t.Val, true
	}
	return 0, false
}

// IsTrue reports whether t is the bv1 constant 1.
func (t *Term) IsTrue() bool { return t.Op == OpConst && t.W == 1 && t.Val == 1 }

// IsFalse reports whether t is the bv1 constant 0.
func (t *Term) IsFalse() bool { return t.Op == OpConst && t.W == 1 && t.Val == 0 }

// String renders the term as an SMT-LIB-flavoured s-expression.
func (t *Term) String() string {
	switch t.Op {
	case OpConst:
		return fmt.Sprintf("#x%0*x", (t.W+3)/4, t.Val)
	case OpVar:
		return t.Name
	case OpExtract:
		return fmt.Sprintf("((_ extract %d %d) %s)", t.Aux, t.Aux2, t.Args[0])
	case OpZExt, OpSExt:
		return fmt.Sprintf("((_ %s %d) %s)", opNames[t.Op], t.Aux-t.Args[0].W, t.Args[0])
	default:
		var b strings.Builder
		b.WriteString("(")
		b.WriteString(opNames[t.Op])
		for _, a := range t.Args {
			b.WriteString(" ")
			b.WriteString(a.String())
		}
		b.WriteString(")")
		return b.String()
	}
}

type termKey struct {
	op         Op
	w          int
	a0, a1, a2 uint64 // arg ids
	val        uint64
	name       string
	aux, aux2  int
}

// Builder creates and hash-conses terms. A Builder is not safe for
// concurrent use; the fuzzing loop owns one per worker.
type Builder struct {
	table  map[termKey]*Term
	nextID uint64
	// Rewrite enables algebraic simplification during construction. On by
	// default; the throughput ablation switches it off to measure how much
	// solver work the rewriter saves.
	Rewrite bool
}

// NewBuilder returns a Builder with rewriting enabled.
func NewBuilder() *Builder {
	return &Builder{table: make(map[termKey]*Term), Rewrite: true}
}

func (b *Builder) intern(t *Term) *Term {
	k := termKey{op: t.Op, w: t.W, val: t.Val, name: t.Name, aux: t.Aux, aux2: t.Aux2}
	if len(t.Args) > 0 {
		k.a0 = t.Args[0].id
	}
	if len(t.Args) > 1 {
		k.a1 = t.Args[1].id
	}
	if len(t.Args) > 2 {
		k.a2 = t.Args[2].id
	}
	if ex, ok := b.table[k]; ok {
		return ex
	}
	b.nextID++
	t.id = b.nextID
	b.table[k] = t
	return t
}

// Const returns the width-w constant val (truncated to w bits).
func (b *Builder) Const(w int, val uint64) *Term {
	return b.intern(&Term{Op: OpConst, W: w, Val: val & apint.Mask(w)})
}

// Bool returns the bv1 constant for v.
func (b *Builder) Bool(v bool) *Term {
	if v {
		return b.Const(1, 1)
	}
	return b.Const(1, 0)
}

// Var returns the width-w variable with the given name. Variables are
// identified by name: asking twice returns the same term.
func (b *Builder) Var(w int, name string) *Term {
	return b.intern(&Term{Op: OpVar, W: w, Name: name})
}

func (b *Builder) checkWidths(op Op, x, y *Term) {
	if x.W != y.W {
		panic(fmt.Sprintf("smt: %s width mismatch (%d vs %d)", opNames[op], x.W, y.W))
	}
}

// binary builds a binary term, applying constant folding and local
// rewrites when enabled.
func (b *Builder) binary(op Op, x, y *Term) *Term {
	b.checkWidths(op, x, y)
	w := x.W
	resW := w
	if op == OpEq || op == OpUlt || op == OpSlt {
		resW = 1
	}
	if xv, xc := x.IsConst(); xc {
		if yv, yc := y.IsConst(); yc {
			return b.Const(resW, evalBinary(op, xv, yv, w))
		}
	}
	if b.Rewrite {
		if t := b.rewriteBinary(op, x, y); t != nil {
			return t
		}
	}
	// Canonical operand order for commutative operators improves
	// hash-consing hits.
	switch op {
	case OpAnd, OpOr, OpXor, OpAdd, OpMul, OpEq:
		if x.id > y.id {
			x, y = y, x
		}
	}
	return b.intern(&Term{Op: op, W: resW, Args: []*Term{x, y}})
}

// Not returns the bitwise complement.
func (b *Builder) Not(x *Term) *Term {
	if v, ok := x.IsConst(); ok {
		return b.Const(x.W, apint.Not(v, x.W))
	}
	if b.Rewrite && x.Op == OpNot {
		return x.Args[0]
	}
	return b.intern(&Term{Op: OpNot, W: x.W, Args: []*Term{x}})
}

// Neg returns two's-complement negation.
func (b *Builder) Neg(x *Term) *Term {
	if v, ok := x.IsConst(); ok {
		return b.Const(x.W, apint.Neg(v, x.W))
	}
	if b.Rewrite && x.Op == OpNeg {
		return x.Args[0]
	}
	return b.intern(&Term{Op: OpNeg, W: x.W, Args: []*Term{x}})
}

// And returns bitwise and. For bv1 terms this is logical conjunction.
func (b *Builder) And(x, y *Term) *Term { return b.binary(OpAnd, x, y) }

// Or returns bitwise or.
func (b *Builder) Or(x, y *Term) *Term { return b.binary(OpOr, x, y) }

// Xor returns bitwise xor.
func (b *Builder) Xor(x, y *Term) *Term { return b.binary(OpXor, x, y) }

// Add returns modular addition.
func (b *Builder) Add(x, y *Term) *Term { return b.binary(OpAdd, x, y) }

// Sub returns modular subtraction.
func (b *Builder) Sub(x, y *Term) *Term { return b.binary(OpSub, x, y) }

// Mul returns modular multiplication.
func (b *Builder) Mul(x, y *Term) *Term { return b.binary(OpMul, x, y) }

// UDiv returns unsigned division (SMT-LIB total semantics).
func (b *Builder) UDiv(x, y *Term) *Term { return b.binary(OpUDiv, x, y) }

// URem returns unsigned remainder.
func (b *Builder) URem(x, y *Term) *Term { return b.binary(OpURem, x, y) }

// SDiv returns signed division.
func (b *Builder) SDiv(x, y *Term) *Term { return b.binary(OpSDiv, x, y) }

// SRem returns signed remainder.
func (b *Builder) SRem(x, y *Term) *Term { return b.binary(OpSRem, x, y) }

// Shl returns left shift; amounts >= width yield zero.
func (b *Builder) Shl(x, y *Term) *Term { return b.binary(OpShl, x, y) }

// LShr returns logical right shift.
func (b *Builder) LShr(x, y *Term) *Term { return b.binary(OpLShr, x, y) }

// AShr returns arithmetic right shift.
func (b *Builder) AShr(x, y *Term) *Term { return b.binary(OpAShr, x, y) }

// Eq returns the bv1 equality test.
func (b *Builder) Eq(x, y *Term) *Term { return b.binary(OpEq, x, y) }

// Ne returns the bv1 disequality test.
func (b *Builder) Ne(x, y *Term) *Term { return b.Not(b.Eq(x, y)) }

// Ult returns the bv1 unsigned less-than test.
func (b *Builder) Ult(x, y *Term) *Term { return b.binary(OpUlt, x, y) }

// Slt returns the bv1 signed less-than test.
func (b *Builder) Slt(x, y *Term) *Term { return b.binary(OpSlt, x, y) }

// Ule returns x <=u y.
func (b *Builder) Ule(x, y *Term) *Term { return b.Not(b.Ult(y, x)) }

// Sle returns x <=s y.
func (b *Builder) Sle(x, y *Term) *Term { return b.Not(b.Slt(y, x)) }

// Ugt returns x >u y.
func (b *Builder) Ugt(x, y *Term) *Term { return b.Ult(y, x) }

// Sgt returns x >s y.
func (b *Builder) Sgt(x, y *Term) *Term { return b.Slt(y, x) }

// Implies returns the bv1 implication x → y.
func (b *Builder) Implies(x, y *Term) *Term { return b.Or(b.Not(x), y) }

// Ite returns if-then-else.
func (b *Builder) Ite(c, x, y *Term) *Term {
	if c.W != 1 {
		panic("smt: Ite condition must be bv1")
	}
	b.checkWidths(OpIte, x, y)
	if c.IsTrue() {
		return x
	}
	if c.IsFalse() {
		return y
	}
	if b.Rewrite {
		if x == y {
			return x
		}
		// ite(c, 1, 0) = c and ite(c, 0, 1) = ¬c for bv1.
		if x.W == 1 {
			if x.IsTrue() && y.IsFalse() {
				return c
			}
			if x.IsFalse() && y.IsTrue() {
				return b.Not(c)
			}
		}
	}
	return b.intern(&Term{Op: OpIte, W: x.W, Args: []*Term{c, x, y}})
}

// ZExt zero-extends to width to (identity when to == x.W).
func (b *Builder) ZExt(x *Term, to int) *Term {
	if to == x.W {
		return x
	}
	if to < x.W {
		panic("smt: ZExt to narrower width")
	}
	if v, ok := x.IsConst(); ok {
		return b.Const(to, v)
	}
	if b.Rewrite && x.Op == OpZExt {
		return b.ZExt(x.Args[0], to)
	}
	return b.intern(&Term{Op: OpZExt, W: to, Args: []*Term{x}, Aux: to})
}

// SExt sign-extends to width to.
func (b *Builder) SExt(x *Term, to int) *Term {
	if to == x.W {
		return x
	}
	if to < x.W {
		panic("smt: SExt to narrower width")
	}
	if v, ok := x.IsConst(); ok {
		return b.Const(to, apint.SExt(v, x.W, to))
	}
	if b.Rewrite {
		switch x.Op {
		case OpSExt:
			return b.SExt(x.Args[0], to)
		case OpZExt:
			// A zext always widens, so its sign bit is 0.
			return b.ZExt(x.Args[0], to)
		}
	}
	return b.intern(&Term{Op: OpSExt, W: to, Args: []*Term{x}, Aux: to})
}

// Extract returns bits [lo, hi] of x (inclusive), a term of width
// hi-lo+1.
func (b *Builder) Extract(x *Term, hi, lo int) *Term {
	if hi < lo || hi >= x.W || lo < 0 {
		panic(fmt.Sprintf("smt: bad extract [%d:%d] of bv%d", hi, lo, x.W))
	}
	if lo == 0 && hi == x.W-1 {
		return x
	}
	w := hi - lo + 1
	if v, ok := x.IsConst(); ok {
		return b.Const(w, v>>uint(lo))
	}
	if b.Rewrite {
		switch x.Op {
		case OpExtract:
			return b.Extract(x.Args[0], x.Aux2+hi, x.Aux2+lo)
		case OpZExt, OpSExt:
			// The bits of an extension are the operand's, then its fill.
			a := x.Args[0]
			n := a.W
			switch {
			case hi < n:
				return b.Extract(a, hi, lo)
			case lo < n:
				return b.extend(x.Op, b.Extract(a, n-1, lo), w)
			case x.Op == OpZExt:
				return b.Const(w, 0)
			default:
				return b.SExt(b.Extract(a, n-1, n-1), w)
			}
		}
	}
	return b.intern(&Term{Op: OpExtract, W: w, Args: []*Term{x}, Aux: hi, Aux2: lo})
}

// extend widens x to width to with the extension op (OpZExt or OpSExt).
func (b *Builder) extend(op Op, x *Term, to int) *Term {
	if op == OpSExt {
		return b.SExt(x, to)
	}
	return b.ZExt(x, to)
}

// Trunc truncates x to width to.
func (b *Builder) Trunc(x *Term, to int) *Term {
	if to == x.W {
		return x
	}
	return b.Extract(x, to-1, 0)
}

// rewriteBinary applies local algebraic identities; returns nil when no
// rewrite applies. x and y are known not to both be constants.
func (b *Builder) rewriteBinary(op Op, x, y *Term) *Term {
	w := x.W
	xv, xc := x.IsConst()
	yv, yc := y.IsConst()
	zero := func() *Term { return b.Const(w, 0) }
	allOnes := func() *Term { return b.Const(w, apint.Mask(w)) }

	switch op {
	case OpAnd:
		if x == y {
			return x
		}
		if (xc && xv == 0) || (yc && yv == 0) {
			return zero()
		}
		if xc && xv == apint.Mask(w) {
			return y
		}
		if yc && yv == apint.Mask(w) {
			return x
		}
	case OpOr:
		if x == y {
			return x
		}
		if xc && xv == 0 {
			return y
		}
		if yc && yv == 0 {
			return x
		}
		if (xc && xv == apint.Mask(w)) || (yc && yv == apint.Mask(w)) {
			return allOnes()
		}
	case OpXor:
		if x == y {
			return zero()
		}
		if xc && xv == 0 {
			return y
		}
		if yc && yv == 0 {
			return x
		}
		if xc && xv == apint.Mask(w) {
			return b.Not(y)
		}
		if yc && yv == apint.Mask(w) {
			return b.Not(x)
		}
	case OpAdd:
		if xc && xv == 0 {
			return y
		}
		if yc && yv == 0 {
			return x
		}
	case OpSub:
		if yc && yv == 0 {
			return x
		}
		if x == y {
			return zero()
		}
		if xc && xv == 0 {
			return b.Neg(y)
		}
		// x - (x/d)*d == x%d — the div/rem recomposition identity, which
		// turns an otherwise hard division query into a syntactic match
		// (Z3's simplifier performs the same rewrite).
		if y.Op == OpMul {
			for i := 0; i < 2; i++ {
				q, d := y.Args[i], y.Args[1-i]
				if q.Op == OpUDiv && q.Args[0] == x && q.Args[1] == d {
					return b.URem(x, d)
				}
				if q.Op == OpSDiv && q.Args[0] == x && q.Args[1] == d {
					return b.SRem(x, d)
				}
			}
		}
	case OpMul:
		if (xc && xv == 0) || (yc && yv == 0) {
			return zero()
		}
		if xc && xv == 1 {
			return y
		}
		if yc && yv == 1 {
			return x
		}
	case OpUDiv:
		if yc && yv == 1 {
			return x
		}
	case OpURem:
		if yc && yv == 1 {
			return zero()
		}
	case OpShl, OpLShr:
		if yc && yv == 0 {
			return x
		}
		if yc && yv >= uint64(w) {
			return zero()
		}
		if xc && xv == 0 {
			return zero()
		}
	case OpAShr:
		if yc && yv == 0 {
			return x
		}
		if xc && xv == 0 {
			return zero()
		}
	case OpEq:
		if x == y {
			return b.Bool(true)
		}
		if w == 1 {
			// (= x true) = x; (= x false) = ¬x
			if xc {
				if xv == 1 {
					return y
				}
				return b.Not(y)
			}
			if yc {
				if yv == 1 {
					return x
				}
				return b.Not(x)
			}
		}
	case OpUlt:
		if x == y {
			return b.Bool(false)
		}
		if yc && yv == 0 {
			return b.Bool(false) // nothing is < 0 unsigned
		}
		if xc && xv == apint.Mask(w) {
			return b.Bool(false) // all-ones is max
		}
	case OpSlt:
		if x == y {
			return b.Bool(false)
		}
	}
	return b.narrow(op, x, y)
}

// narrow computes a division, remainder, comparison or equality whose
// operands are both extended from fewer bits at the operands' own width,
// the inverse of the IR promotion that widens `urem i8` to
// `trunc(urem i32 (zext x), (zext y))`: the bit-blasted circuit is then
// the narrow one, not a wide divider the SAT solver has to prove equal to
// it (word-level rewriting ahead of bit-blasting, as in Brummayer & Biere,
// "Boolector", TACAS 2009). An operand qualifies as a zext (for the
// unsigned operators) or a sext (signed ones), or as a constant that
// fits. It returns nil when no narrowing applies.
//
// Over n-bit zero-extended operands, urem, ult and eq are exact at n bits
// (urem x 0 = x commutes with zext); udiv x 0 is all-ones at either
// width, so a zero divisor is tested at n bits. Over sign-extended
// operands srem, slt and eq are exact at n bits, and sdiv is exact at
// n+1 bits, where INT_MIN_n / -1 fits and sdiv x 0 keeps its value.
func (b *Builder) narrow(op Op, x, y *Term) *Term {
	switch op {
	case OpUDiv, OpURem, OpUlt:
		return b.narrowAt(op, x, y, false)
	case OpSDiv, OpSRem, OpSlt:
		return b.narrowAt(op, x, y, true)
	case OpEq:
		if t := b.narrowAt(op, x, y, false); t != nil {
			return t
		}
		return b.narrowAt(op, x, y, true)
	}
	return nil
}

func (b *Builder) narrowAt(op Op, x, y *Term, signed bool) *Term {
	nx, ok := significantWidth(x, signed)
	if !ok {
		return nil
	}
	ny, ok := significantWidth(y, signed)
	if !ok {
		return nil
	}
	w, n := x.W, max(nx, ny)
	if op == OpSDiv {
		n++
	}
	if n >= w {
		return nil
	}
	xn, yn := b.lower(x, n), b.lower(y, n)
	r := b.binary(op, xn, yn)
	switch op {
	case OpEq, OpUlt, OpSlt:
		return r
	case OpUDiv:
		return b.Ite(b.Eq(yn, b.Const(n, 0)), b.Const(w, apint.Mask(w)), b.ZExt(r, w))
	case OpURem:
		return b.ZExt(r, w)
	default:
		return b.SExt(r, w)
	}
}

// significantWidth returns the width t is an extension from: the operand
// width of a zext (unsigned) or sext (signed), or the fewest bits that
// extend back to a constant's value. ok is false for any other term.
func significantWidth(t *Term, signed bool) (int, bool) {
	switch {
	case t.Op == OpZExt && !signed, t.Op == OpSExt && signed:
		return t.Args[0].W, true
	case t.Op != OpConst:
		return 0, false
	case !signed:
		return max(1, bits.Len64(t.Val)), true
	case apint.SignBit(t.Val, t.W):
		return bits.Len64(apint.Not(t.Val, t.W)) + 1, true
	default:
		return bits.Len64(t.Val) + 1, true
	}
}

// lower rebuilds an operand significantWidth accepted at width n, which
// is at least its significant width: a constant truncated to n bits, an
// extension's operand extended to n bits.
func (b *Builder) lower(t *Term, n int) *Term {
	if t.Op == OpConst {
		return b.Const(n, t.Val)
	}
	return b.extend(t.Op, t.Args[0], n)
}

// evalBinary evaluates a binary operator on canonical width-w values,
// using SMT-LIB total semantics for division by zero.
func evalBinary(op Op, a, c uint64, w int) uint64 {
	switch op {
	case OpAnd:
		return a & c
	case OpOr:
		return a | c
	case OpXor:
		return a ^ c
	case OpAdd:
		return apint.Add(a, c, w)
	case OpSub:
		return apint.Sub(a, c, w)
	case OpMul:
		return apint.Mul(a, c, w)
	case OpUDiv:
		if c == 0 {
			return apint.Mask(w)
		}
		return apint.UDiv(a, c, w)
	case OpURem:
		if c == 0 {
			return a
		}
		return apint.URem(a, c, w)
	case OpSDiv:
		if c == 0 {
			if apint.SignBit(a, w) {
				return 1
			}
			return apint.Mask(w) // -1
		}
		return apint.SDiv(a, c, w)
	case OpSRem:
		if c == 0 {
			return a
		}
		return apint.SRem(a, c, w)
	case OpShl:
		return apint.Shl(a, c, w)
	case OpLShr:
		return apint.LShr(a, c, w)
	case OpAShr:
		return apint.AShr(a, c, w)
	case OpEq:
		if a == c {
			return 1
		}
		return 0
	case OpUlt:
		if a < c {
			return 1
		}
		return 0
	case OpSlt:
		if apint.SLT(a, c, w) {
			return 1
		}
		return 0
	default:
		panic("smt: evalBinary on non-binary op " + opNames[op])
	}
}
