package opt

import (
	"repro/internal/analysis"
	"repro/internal/apint"
	"repro/internal/ir"
)

// This file hosts the folds backed by the internal/analysis dataflow
// layer: known-bits, constant ranges (guard-refined) and demanded bits.
// Replacing a possibly-poison value with a constant or an operand that is
// defined on strictly more inputs is a refinement, so every fold here is
// TV-safe by construction; the differential harness in
// internal/analysis checks the underlying facts directly.

// analysisSimplify is InstSimplify's analysis hook: folds that replace an
// instruction with an existing value or constant, proven by facts rather
// than by local pattern match. Returns nil when analysis is disabled or
// nothing is proven.
func analysisSimplify(ctx *Context, f *ir.Function, in *ir.Instr) ir.Value {
	fa := ctx.FactsFor(f)
	if fa == nil {
		return nil
	}
	w, isInt := ir.IsInt(in.Ty)
	if !isInt {
		return nil
	}

	switch in.Op {
	case ir.OpICmp:
		// Known-bit conflicts and range disjointness decide the
		// comparison; guards dominating the icmp's block sharpen the
		// operand ranges further.
		if k := fa.Known(in); k.IsConst() {
			ctx.stat("analysis.icmp")
			return ir.NewBool(k.Const() != 0)
		}
		ra := fa.RangeOf(in.Args[0], in.Parent())
		rb := fa.RangeOf(in.Args[1], in.Parent())
		if res, ok := analysis.DecideICmp(in.Pred, ra, rb); ok {
			ctx.stat("analysis.icmp")
			return ir.NewBool(res)
		}
		return nil

	case ir.OpSelect:
		// A condition the analysis pins picks the arm.
		if k := fa.Known(in.Args[0]); k.Width == 1 && k.IsConst() {
			ctx.stat("analysis.select")
			if k.Const() != 0 {
				return in.Args[1]
			}
			return in.Args[2]
		}
		return nil

	case ir.OpCall, ir.OpLoad:
		// Loads and non-intrinsic calls never prove constant, and
		// intrinsic constant folding lives in ConstantFold.
		return nil
	}

	// Whole-value constant: the known bits pin every bit. (Replacing
	// a possibly-poison value with the constant is a refinement.)
	if k := fa.Known(in); k.Width == w && k.IsConst() {
		// Seeded bug 55129: this fold subsumes the zero-width bitfield
		// extract (lshr of a zext'd i1 by >= 1 is provably 0), so the
		// seeded miscompilation must fire here too — the buggy rewrite
		// emits the extended value instead of the proven zero.
		if ctx.Bugs.On(Bug55129ZeroWidthExtract) && in.Op == ir.OpLShr && k.Const() == 0 {
			if z, ok := instOf(in.Args[0], ir.OpZExt); ok && ir.IsBool(z.Args[0].Type()) {
				return z
			}
		}
		ctx.stat("analysis.const")
		return ir.NewConst(ir.Int(w), k.Const())
	}
	return nil
}

// analysisCombine is InstCombine's analysis hook: demanded-bits driven
// strength reduction on and/or/xor and shift chains, plus range-proven
// min/max/abs folds. Every returned value already exists.
func analysisCombine(ctx *Context, f *ir.Function, in *ir.Instr) ir.Value {
	fa := ctx.FactsFor(f)
	if fa == nil {
		return nil
	}
	w, isInt := ir.IsInt(in.Ty)
	if !isInt {
		return nil
	}

	switch in.Op {
	case ir.OpAnd, ir.OpOr, ir.OpXor:
		x := in.Args[0]
		m := apint.Mask(w)
		if yc, ok := constOf(in.Args[1]); ok {
			du := fa.Demanded(in)
			kx := fa.Known(x)
			switch in.Op {
			case ir.OpAnd:
				// Masking only never-demanded bits, or bits already
				// known zero, is a no-op.
				if du&^yc.Val == 0 || kx.Zeros&^yc.Val == ^yc.Val&m {
					ctx.stat("analysis.demanded.and")
					return x
				}
			case ir.OpOr:
				if du&yc.Val == 0 || kx.Ones&yc.Val == yc.Val {
					ctx.stat("analysis.demanded.or")
					return x
				}
			case ir.OpXor:
				if du&yc.Val == 0 {
					ctx.stat("analysis.demanded.xor")
					return x
				}
			}
		}

	case ir.OpLShr:
		// (lshr (shl x, C), C) -> x when the high C bits (the ones
		// the round trip clears) are never demanded.
		if yc, ok := constOf(in.Args[1]); ok && yc.Val > 0 && yc.Val < uint64(w) {
			if shl, ok := instOf(in.Args[0], ir.OpShl); ok && !in.Exact && !shl.Nuw && !shl.Nsw {
				if sc, ok := constOf(shl.Args[1]); ok && sc.Val == yc.Val {
					cleared := apint.Mask(w) &^ (apint.Mask(w) >> yc.Val)
					if fa.Demanded(in)&cleared == 0 {
						ctx.stat("analysis.demanded.shiftchain")
						return shl.Args[0]
					}
				}
			}
		}

	case ir.OpShl:
		// (shl (lshr x, C), C) -> x when the low C bits are never
		// demanded.
		if yc, ok := constOf(in.Args[1]); ok && yc.Val > 0 && yc.Val < uint64(w) {
			if shr, ok := instOf(in.Args[0], ir.OpLShr); ok && !in.Nuw && !in.Nsw && !shr.Exact {
				if sc, ok := constOf(shr.Args[1]); ok && sc.Val == yc.Val {
					if fa.Demanded(in)&(^(apint.Mask(w)<<yc.Val)&apint.Mask(w)) == 0 {
						ctx.stat("analysis.demanded.shiftchain")
						return shr.Args[0]
					}
				}
			}
		}

	case ir.OpCall:
		kind, ok := in.IsIntrinsicCall()
		if !ok {
			return nil
		}
		at := in.Parent()
		switch kind {
		case ir.IntrinsicSMax, ir.IntrinsicSMin, ir.IntrinsicUMax, ir.IntrinsicUMin:
			ra := fa.RangeOf(in.Args[0], at)
			rb := fa.RangeOf(in.Args[1], at)
			var winPred ir.Pred
			switch kind {
			case ir.IntrinsicSMax:
				winPred = ir.SGE
			case ir.IntrinsicSMin:
				winPred = ir.SLE
			case ir.IntrinsicUMax:
				winPred = ir.UGE
			default:
				winPred = ir.ULE
			}
			if res, ok := analysis.DecideICmp(winPred, ra, rb); ok {
				ctx.stat("analysis.range.minmax")
				if res {
					return in.Args[0]
				}
				return in.Args[1]
			}
		case ir.IntrinsicAbs:
			// abs(x) -> x when the range proves x >= 0.
			if r := fa.RangeOf(in.Args[0], at); r.SLo >= 0 {
				ctx.stat("analysis.range.abs")
				return in.Args[0]
			}
		}
	}
	return nil
}
