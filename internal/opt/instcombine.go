package opt

import (
	"math/bits"

	"repro/internal/apint"
	"repro/internal/ir"
)

// InstCombinePass is the peephole combiner, modelled on LLVM's InstCombine
// — the component the paper (and Csmith before it) found to be the single
// richest source of middle-end bugs. It canonicalizes expressions and
// performs pattern-based rewrites, inserting new instructions where LLVM
// would.
type InstCombinePass struct{}

// Name implements Pass.
func (*InstCombinePass) Name() string { return "instcombine" }

// maxInstCombineIters caps fixpoint iteration, like LLVM's own limit.
const maxInstCombineIters = 8

// Run implements Pass.
func (p *InstCombinePass) Run(ctx *Context, f *ir.Function) bool {
	changed := false
	// Replaced instructions can survive erasure when they might trap;
	// never re-fire on such leftovers.
	done := make(map[*ir.Instr]bool)
	c := &combiner{ctx: ctx, f: f}
	sweep := func(fold func(c *combiner, in *ir.Instr) ir.Value) bool {
		again := false
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				if done[in] {
					continue
				}
				c.b, c.idx = b, i
				if v := fold(c, in); v != nil {
					done[in] = true
					replaceAllUses(f, in, v)
					eraseDeadInstr(f, in)
					ctx.InvalidateFacts(f)
					again, changed = true, true
					// c may have inserted instructions before idx; restart
					// this block to keep indices coherent.
					i = -1
				}
			}
		}
		return again
	}
	for iter := 0; iter < maxInstCombineIters; iter++ {
		if sweep((*combiner).combine) {
			continue
		}
		// Pattern rules reached fixpoint: only now apply the
		// dataflow-analysis-backed folds (demanded bits, guard-refined
		// ranges). Running them later keeps the pattern rules — the
		// seeded bugs among them in particular — first shot at their
		// trigger shapes.
		if !sweep(func(c *combiner, in *ir.Instr) ir.Value {
			return analysisCombine(c.ctx, c.f, in)
		}) {
			break
		}
	}
	return changed
}

// combiner carries the insertion point for rules that build instructions.
type combiner struct {
	ctx *Context
	f   *ir.Function
	b   *ir.Block
	idx int
}

// insert places a new instruction before the current one and returns it.
func (c *combiner) insert(in *ir.Instr) *ir.Instr {
	if in.Nm == "" && !ir.IsVoid(in.Ty) {
		in.Nm = c.f.FreshName("ic")
	}
	c.b.InsertAt(c.idx, in)
	c.idx++
	return in
}

func (c *combiner) combine(in *ir.Instr) ir.Value {
	switch {
	case in.Op.IsBinary():
		if v := c.combineBinary(in); v != nil {
			c.ctx.stat("instcombine." + in.Op.String())
			return v
		}
	case in.Op == ir.OpICmp:
		if v := c.combineICmp(in); v != nil {
			c.ctx.stat("instcombine.icmp")
			return v
		}
	case in.Op == ir.OpSelect:
		if v := c.combineSelect(in); v != nil {
			c.ctx.stat("instcombine.select")
			return v
		}
	case in.Op == ir.OpZExt:
		if v := c.combineZExt(in); v != nil {
			c.ctx.stat("instcombine.zext")
			return v
		}
	case in.Op == ir.OpCall:
		if v := c.combineIntrinsic(in); v != nil {
			c.ctx.stat("instcombine.intrinsic")
			return v
		}
	}
	return nil
}

// instOf matches v as an instruction with a given opcode.
func instOf(v ir.Value, op ir.Op) (*ir.Instr, bool) {
	in, ok := v.(*ir.Instr)
	if !ok || in.Op != op {
		return nil, false
	}
	return in, true
}

func (c *combiner) combineBinary(in *ir.Instr) ir.Value {
	w, _ := ir.IsInt(in.Ty)
	x, y := in.Args[0], in.Args[1]
	_, xIsC := constOf(x)
	yc, yIsC := constOf(y)

	// Canonicalize: constant operand to the right for commutative ops.
	if in.Op.IsCommutative() && xIsC && !yIsC {
		in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
		x, y = in.Args[0], in.Args[1]
		yc, yIsC = constOf(y)
	}

	// sub x, C -> add x, -C (canonical form; wrap flags cannot be kept).
	if in.Op == ir.OpSub && yIsC && !yc.IsZero() && !in.Nuw && !in.Nsw {
		return c.insert(ir.NewBinary(ir.OpAdd, "", x, ir.NewConst(yc.Ty, apint.Neg(yc.Val, w))))
	}

	// Reassociate (x op C1) op C2 -> x op (C1 ∘ C2) for flagless
	// associative ops.
	if yIsC && !in.Nuw && !in.Nsw {
		if inner, ok := x.(*ir.Instr); ok && inner.Op == in.Op && !inner.Nuw && !inner.Nsw {
			if ic, ok := constOf(inner.Args[1]); ok {
				var folded uint64
				apply := true
				switch in.Op {
				case ir.OpAdd:
					folded = apint.Add(ic.Val, yc.Val, w)
				case ir.OpMul:
					folded = apint.Mul(ic.Val, yc.Val, w)
				case ir.OpAnd:
					folded = ic.Val & yc.Val
				case ir.OpOr:
					folded = ic.Val | yc.Val
				case ir.OpXor:
					folded = ic.Val ^ yc.Val
				default:
					apply = false
				}
				if apply {
					ni := ir.NewBinary(in.Op, "", inner.Args[0], ir.NewConst(yc.Ty, folded))
					return c.insert(ni)
				}
			}
		}
	}

	// Shift-of-shift with constant amounts: shl(shl x, C1), C2 -> shl x,
	// C1+C2 when in range (same for lshr).
	if (in.Op == ir.OpShl || in.Op == ir.OpLShr) && yIsC {
		if inner, ok := instOf(x, in.Op); ok && !inner.Nuw && !inner.Nsw && !inner.Exact && !in.Nuw && !in.Nsw && !in.Exact {
			if ic, ok := constOf(inner.Args[1]); ok {
				total := ic.Val + yc.Val
				if ic.Val < uint64(w) && yc.Val < uint64(w) {
					if total >= uint64(w) {
						return ir.NewConst(ir.Int(w), 0)
					}
					return c.insert(ir.NewBinary(in.Op, "", inner.Args[0], ir.NewConst(yc.Ty, total)))
				}
			}
		}
	}

	// xor(icmp, true) -> icmp with inverse predicate (not-of-compare).
	if in.Op == ir.OpXor && yIsC && yc.IsAllOnes() && w == 1 {
		if cmp, ok := instOf(x, ir.OpICmp); ok {
			return c.insert(ir.NewICmp(cmp.Pred.Inverse(), "", cmp.Args[0], cmp.Args[1]))
		}
	}

	// add(x, x) -> shl x, 1 (LLVM's canonical doubling form). Wrap flags
	// transfer: doubling overflows unsigned iff the shift loses the top
	// bit, and signed iff the sign changes — the same conditions shl's
	// flags denote. Not at i1: there the shift amount equals the width,
	// making the result unconditionally poison while add i1 x, x is a
	// well-defined 0 for x == 0. (This exact miscompilation was found by
	// fuzzing this compiler with this repository's own alive-mutate loop —
	// see EXPERIMENTS.md "Fuzzing ourselves".)
	if in.Op == ir.OpAdd && x == y && w > 1 {
		ni := ir.NewBinary(ir.OpShl, "", x, ir.NewConst(ir.Int(w), 1))
		ni.Nuw, ni.Nsw = in.Nuw, in.Nsw
		return c.insert(ni)
	}

	// or(x, and(x, y)) -> x and and(x, or(x, y)) -> x (absorption).
	if in.Op == ir.OpOr {
		for s := 0; s < 2; s++ {
			if inner, ok := instOf(in.Args[s], ir.OpAnd); ok {
				other := in.Args[1-s]
				if inner.Args[0] == other || inner.Args[1] == other {
					return other
				}
			}
		}
	}
	if in.Op == ir.OpAnd {
		for s := 0; s < 2; s++ {
			if inner, ok := instOf(in.Args[s], ir.OpOr); ok {
				other := in.Args[1-s]
				if inner.Args[0] == other || inner.Args[1] == other {
					return other
				}
			}
		}
	}

	// Opposite shifts: (x shl C) >> C.
	if (in.Op == ir.OpLShr || in.Op == ir.OpAShr) && yIsC && yc.Val < uint64(w) {
		if shl, ok := instOf(x, ir.OpShl); ok {
			if ic, ok := constOf(shl.Args[1]); ok && ic.Val == yc.Val {
				// (x shl C) lshr C -> x & (-1 >>u C), always correct.
				if in.Op == ir.OpLShr && !in.Exact {
					mask := apint.LShr(apint.Mask(w), yc.Val, w)
					return c.insert(ir.NewBinary(ir.OpAnd, "", shl.Args[0], ir.NewConst(ir.Int(w), mask)))
				}
				// (x shl nsw C) ashr C -> x: requires nsw so the shifted
				// value sign-extends back.
				//
				// Seeded bug 50693 ("missing a simplification of the
				// opposite shifts of -1"): the nsw precondition is
				// skipped, folding even when high bits are lost.
				if in.Op == ir.OpAShr {
					if shl.Nsw || c.ctx.Bugs.On(Bug50693OppositeShifts) {
						return shl.Args[0]
					}
				}
			}
		}
	}

	// and(or(x, C1), C2) -> and(x, C2) requires C1 & C2 == 0.
	//
	// Seeded bug 55284 (or+and miscompile): the disjointness check is
	// dropped, discarding bits C1 contributes under C2.
	if in.Op == ir.OpAnd && yIsC {
		if or, ok := instOf(x, ir.OpOr); ok {
			if oc, ok := constOf(or.Args[1]); ok {
				if oc.Val&yc.Val == 0 || c.ctx.Bugs.On(Bug55284OrAndMiscompile) {
					return c.insert(ir.NewBinary(ir.OpAnd, "", or.Args[0], y))
				}
			}
		}
	}

	// Zero-width bitfield extract: lshr(zext i1 b, C) with C >= 1 is 0.
	//
	// Seeded bug 55129: emits the extended value instead of 0 (the paper's
	// Listing 18, @lsr_zext_il_i64).
	if in.Op == ir.OpLShr && yIsC && yc.Val >= 1 {
		if z, ok := instOf(x, ir.OpZExt); ok && ir.IsBool(z.Args[0].Type()) {
			if c.ctx.Bugs.On(Bug55129ZeroWidthExtract) {
				return z
			}
			if yc.Val < uint64(w) {
				return ir.NewConst(ir.Int(w), 0)
			}
		}
	}

	// Bitfield-extract mask: and(lshr(x, C), 2^k-1). When C+k >= w the
	// shift already cleared the high bits and the mask is redundant.
	//
	// Seeded bug 55833: off-by-one (strict >= computed as >= w-1) drops a
	// mask that is still needed.
	if in.Op == ir.OpAnd && yIsC && yc.Val != 0 && apint.IsPowerOfTwo(yc.Val+1) {
		if shr, ok := instOf(x, ir.OpLShr); ok {
			if sc, ok := constOf(shr.Args[1]); ok {
				k := uint64(bits.Len64(yc.Val))
				limit := uint64(w)
				if c.ctx.Bugs.On(Bug55833BitfieldExtract) {
					limit = uint64(w) - 1
				}
				if sc.Val+k >= limit && sc.Val < uint64(w) {
					return shr
				}
			}
		}
	}

	// urem recomposition: sub(x, mul(udiv(x, y), y)) -> urem x, y.
	//
	// Seeded bug 55287 (urem+udiv miscompile): emits srem.
	if in.Op == ir.OpSub && !in.Nuw && !in.Nsw {
		if mul, ok := instOf(y, ir.OpMul); ok {
			for swap := 0; swap < 2; swap++ {
				a, b := mul.Args[swap], mul.Args[1-swap]
				if div, ok := instOf(a, ir.OpUDiv); ok && div.Args[0] == x && div.Args[1] == b {
					op := ir.OpURem
					if c.ctx.Bugs.On(Bug55287UremUdiv) {
						op = ir.OpSRem
					}
					return c.insert(ir.NewBinary(op, "", x, b))
				}
			}
		}
	}

	// Rotate with redundant masks:
	//   or(shl(and(x, M1), C1), lshr(and(x, M2), C2)), C1+C2 == w.
	// The masks may be dropped only when they keep every bit the shifts
	// keep: M1 ⊇ low w-C1 bits and M2 ⊇ high w-C2 bits.
	//
	// Seeded bug 55201 (disguised rotate): masks dropped unconditionally.
	if in.Op == ir.OpOr {
		if v := c.combineRotate(in, w); v != nil {
			return v
		}
		if v := c.combineBSwap(in, w); v != nil {
			return v
		}
	}

	return nil
}

func (c *combiner) combineRotate(in *ir.Instr, w int) ir.Value {
	for swap := 0; swap < 2; swap++ {
		shl, ok1 := instOf(in.Args[swap], ir.OpShl)
		shr, ok2 := instOf(in.Args[1-swap], ir.OpLShr)
		if !ok1 || !ok2 {
			continue
		}
		c1, ok1 := constOf(shl.Args[1])
		c2, ok2 := constOf(shr.Args[1])
		if !ok1 || !ok2 || c1.Val+c2.Val != uint64(w) || c1.Val == 0 || c2.Val == 0 {
			continue
		}
		and1, ok1 := instOf(shl.Args[0], ir.OpAnd)
		and2, ok2 := instOf(shr.Args[0], ir.OpAnd)
		if !ok1 || !ok2 || and1.Args[0] != and2.Args[0] {
			continue
		}
		m1, ok1 := constOf(and1.Args[1])
		m2, ok2 := constOf(and2.Args[1])
		if !ok1 || !ok2 {
			continue
		}
		lowNeeded := apint.Mask(w) >> uint(c1.Val)             // bits surviving shl C1
		highNeeded := apint.Mask(w) &^ apint.Mask(int(c2.Val)) // bits surviving lshr C2
		masksRedundant := m1.Val&lowNeeded == lowNeeded && m2.Val&highNeeded == highNeeded
		if masksRedundant || c.ctx.Bugs.On(Bug55201RotateMask) {
			x := and1.Args[0]
			ns := c.insert(ir.NewBinary(ir.OpShl, "", x, c1))
			nr := c.insert(ir.NewBinary(ir.OpLShr, "", x, c2))
			return c.insert(ir.NewBinary(ir.OpOr, "", ns, nr))
		}
	}
	return nil
}

// combineBSwap recognizes or(shl(x, 8), lshr(x, 8)) which is a byte swap
// at i16 only.
//
// Seeded bug 55484 (MatchBSwapHWordLow): the width check is missing, so
// the i32 "low halfword" pattern is matched as a full bswap.
func (c *combiner) combineBSwap(in *ir.Instr, w int) ir.Value {
	for swap := 0; swap < 2; swap++ {
		shl, ok1 := instOf(in.Args[swap], ir.OpShl)
		shr, ok2 := instOf(in.Args[1-swap], ir.OpLShr)
		if !ok1 || !ok2 || shl.Args[0] != shr.Args[0] {
			continue
		}
		c1, ok1 := constOf(shl.Args[1])
		c2, ok2 := constOf(shr.Args[1])
		if !ok1 || !ok2 || c1.Val != 8 || c2.Val != 8 {
			continue
		}
		widthOK := w == 16
		if c.ctx.Bugs.On(Bug55484BSwapMatch) {
			widthOK = w == 16 || w == 32
		}
		if !widthOK || !ir.BswapSupports(w) {
			continue
		}
		return c.insert(ir.NewCall("", ir.IntrinsicName(ir.IntrinsicBswap, w),
			ir.IntrinsicSig(ir.IntrinsicBswap, w), shl.Args[0]))
	}
	return nil
}

// maxBitsUsed computes a conservative upper bound on the number of
// significant (non-zero high) bits of v — a miniature known-bits analysis.
func maxBitsUsed(v ir.Value, depth int) int {
	w := 64
	if iw, ok := ir.IsInt(v.Type()); ok {
		w = iw
	}
	if depth <= 0 {
		return w
	}
	switch x := v.(type) {
	case *ir.Const:
		return bits.Len64(x.Val)
	case *ir.Instr:
		switch x.Op {
		case ir.OpZExt:
			return maxBitsUsed(x.Args[0], depth-1)
		case ir.OpTrunc:
			inner := maxBitsUsed(x.Args[0], depth-1)
			if inner < w {
				return inner
			}
			return w
		case ir.OpAnd:
			if m, ok := constOf(x.Args[1]); ok {
				n := bits.Len64(m.Val)
				if n < w {
					return n
				}
			}
			return w
		case ir.OpLShr:
			if s, ok := constOf(x.Args[1]); ok && s.Val < uint64(w) {
				n := maxBitsUsed(x.Args[0], depth-1) - int(s.Val)
				if n < 0 {
					n = 0
				}
				return n
			}
			return w
		}
	}
	return w
}

// combineZExt widens zext(mul): when the product provably fits the narrow
// type, the multiply can be performed at the wide type.
//
// Seeded bug 59836 (Listing 17): the fits-check is made against the WIDE
// width, so a multiply that wraps at the narrow width is treated as exact.
func (c *combiner) combineZExt(in *ir.Instr) ir.Value {
	narrowW, _ := ir.IsInt(in.Args[0].Type())
	wideW, _ := ir.IsInt(in.Ty)
	mul, ok := instOf(in.Args[0], ir.OpMul)
	if !ok || mul.Nuw || mul.Nsw {
		return nil
	}
	ka := maxBitsUsed(mul.Args[0], 4)
	kb := maxBitsUsed(mul.Args[1], 4)
	limit := narrowW
	if c.ctx.Bugs.On(Bug59836ZextMulOverflow) {
		limit = wideW
	}
	if ka+kb > limit {
		return nil
	}
	wa := c.insert(ir.NewCast(ir.OpZExt, "", mul.Args[0], ir.Int(wideW)))
	wb := c.insert(ir.NewCast(ir.OpZExt, "", mul.Args[1], ir.Int(wideW)))
	return c.insert(ir.NewBinary(ir.OpMul, "", wa, wb))
}

func (c *combiner) combineICmp(in *ir.Instr) ir.Value {
	// Canonicalize constant to the RHS with the swapped predicate.
	if _, ok := constOf(in.Args[0]); ok {
		if _, ok := constOf(in.Args[1]); !ok {
			in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
			in.Pred = in.Pred.Swapped()
			return nil // mutated in place; no replacement
		}
	}
	// icmp eq/ne (xor x, y), 0 -> icmp eq/ne x, y
	if in.Pred == ir.EQ || in.Pred == ir.NE {
		if yc, ok := constOf(in.Args[1]); ok && yc.IsZero() {
			if x, ok := instOf(in.Args[0], ir.OpXor); ok {
				return c.insert(ir.NewICmp(in.Pred, "", x.Args[0], x.Args[1]))
			}
		}
	}
	// Range folds from known bits: when the LHS provably fits in k bits,
	// unsigned comparisons against larger constants are decided. (Folding
	// a possibly-poison comparison to a constant is a legal refinement.)
	if yc, ok := constOf(in.Args[1]); ok {
		if w, isInt := ir.IsInt(in.Args[0].Type()); isInt {
			k := maxBitsUsed(in.Args[0], 4)
			if k < w { // only when the analysis learned something
				maxVal := uint64(1)<<uint(k) - 1
				switch in.Pred {
				case ir.ULT:
					if maxVal < yc.Val {
						return ir.NewBool(true)
					}
				case ir.ULE:
					if maxVal <= yc.Val {
						return ir.NewBool(true)
					}
				case ir.UGT:
					if maxVal <= yc.Val {
						return ir.NewBool(false)
					}
				case ir.UGE:
					if maxVal < yc.Val {
						return ir.NewBool(false)
					}
				}
			}
		}
	}
	return nil
}

// combineSelect hosts the clamp-like canonicalization from the paper's
// Fig. 1 (seeded bug 53252: "didn't update predicate in function
// 'canonicalizeClampLike'").
//
// The matched shape (the paper's Listing 2):
//
//	%t0 = icmp slt %x, 0
//	%t1 = select %t0, %low, %high
//	%t2 = icmp ult %x, C
//	%n  = xor %t2, true
//	%r  = select %n, %x, %t1        <- `in`
//
// On the %n-false edge, %x is unsigned-below C, hence non-negative, hence
// %t1 is %high; the correct canonical form is
//
//	%r = select (icmp ult %x, C), %high, %x
//
// The buggy form re-associates into the two-select chain of Listing 3,
// which returns %x (not %high) for 0 <= %x < C.
func (c *combiner) combineSelect(in *ir.Instr) ir.Value {
	// The in-range test appears in three shapes: the literal xor form of
	// Listing 2 (select(xor(ult), x, t1)), the post-fold inverse predicate
	// (select(uge, x, t1)), or the un-negated orientation
	// (select(ult, t1, x)).
	var t2 *ir.Instr
	outOfRangeCond := true
	if n, ok := instOf(in.Args[0], ir.OpXor); ok && ir.IsBool(n.Ty) {
		if nc, isC := constOf(n.Args[1]); isC && nc.IsAllOnes() {
			if cmp, ok := instOf(n.Args[0], ir.OpICmp); ok && cmp.Pred == ir.ULT {
				t2 = cmp
			}
		}
	}
	if t2 == nil {
		if cmp, ok := instOf(in.Args[0], ir.OpICmp); ok {
			switch cmp.Pred {
			case ir.UGE:
				t2 = cmp
			case ir.ULT:
				t2 = cmp
				outOfRangeCond = false
			}
		}
	}
	if t2 == nil {
		return nil
	}
	cRange, ok := constOf(t2.Args[1])
	if !ok {
		return nil
	}
	x := t2.Args[0]
	xArm, t1Arm := in.Args[1], in.Args[2]
	if !outOfRangeCond {
		xArm, t1Arm = t1Arm, xArm
	}
	if xArm != x {
		return nil
	}
	t1, ok := instOf(t1Arm, ir.OpSelect)
	if !ok {
		return nil
	}
	t0, ok := instOf(t1.Args[0], ir.OpICmp)
	if !ok || t0.Pred != ir.SLT || t0.Args[0] != x {
		return nil
	}
	w, _ := ir.IsInt(in.Ty)
	// The lower-bound constant may be any non-positive value: whenever
	// x <u C (so x >= 0 signed, given C <= INT_MAX), x < C0 <= 0 is false
	// and the inner select picks %high.
	if zc, ok := constOf(t0.Args[1]); !ok || apint.ToInt64(zc.Val, w) > 0 {
		return nil
	}
	low, high := t1.Args[1], t1.Args[2]
	// The range constant must stay within the non-negative signed range
	// for "x <u C implies x >= 0 signed" to hold.
	if cRange.Val > apint.Mask(w)>>1 {
		return nil
	}

	if c.ctx.Bugs.On(Bug53252ClampPredicate) {
		// Buggy canonicalization: the Listing-3 two-select chain.
		c1 := c.insert(ir.NewICmp(ir.SLT, "", x, ir.NewConst(ir.Int(w), 0)))
		c2 := c.insert(ir.NewICmp(ir.SGT, "", x, ir.NewConst(ir.Int(w), apint.Sub(cRange.Val, 1, w))))
		s1 := c.insert(ir.NewSelect("", c1, low, x))
		return c.insert(ir.NewSelect("", c2, high, s1))
	}

	cond := c.insert(ir.NewICmp(ir.ULT, "", x, cRange))
	return c.insert(ir.NewSelect("", cond, high, x))
}

// combineIntrinsic folds min/max intrinsic patterns.
func (c *combiner) combineIntrinsic(in *ir.Instr) ir.Value {
	kind, ok := in.IsIntrinsicCall()
	if !ok {
		return nil
	}
	w, isInt := ir.IsInt(in.Ty)
	if !isInt {
		return nil
	}
	switch kind {
	case ir.IntrinsicSMax, ir.IntrinsicSMin, ir.IntrinsicUMax, ir.IntrinsicUMin:
		x, y := in.Args[0], in.Args[1]

		// Seeded crash 52884 (the paper's Listing 15): InstCombine expects
		// InstSimplify to have squashed smax-of-add patterns, "but the
		// analysis got thwarted by having both nuw and nsw on the add".
		if c.ctx.Bugs.On(Bug52884NuwNswSmax) && kind == ir.IntrinsicSMax {
			for _, a := range []ir.Value{x, y} {
				if add, ok := instOf(a, ir.OpAdd); ok && add.Nuw && add.Nsw {
					crash(Bug52884NuwNswSmax, "unsimplified smax(add nuw nsw) pattern: %s", in.String())
				}
			}
		}

		// Canonicalize constant to the RHS.
		if _, xc := constOf(x); xc {
			if _, yc := constOf(y); !yc {
				// Seeded crash 56463: the rebuilt call uses a bad
				// signature ("calling a function with a bad signature").
				if c.ctx.Bugs.On(Bug56463BadSignature) {
					crash(Bug56463BadSignature, "rebuilding %s with mismatched signature", in.Callee)
				}
				in.Args[0], in.Args[1] = y, x
				x, y = in.Args[0], in.Args[1]
			}
		}

		if yc, ok := constOf(y); ok {
			switch {
			case kind == ir.IntrinsicSMax && yc.Val == 1<<uint(w-1): // smax(x, INT_MIN)
				return x
			case kind == ir.IntrinsicSMin && yc.Val == apint.Mask(w)>>1: // smin(x, INT_MAX)
				return x
			case kind == ir.IntrinsicUMax && yc.IsZero():
				return x
			case kind == ir.IntrinsicUMin && yc.IsAllOnes():
				return x
			}
		}
		if x == y {
			return x
		}
	}
	return nil
}
