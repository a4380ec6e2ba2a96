package analysis

import (
	"math/bits"

	"repro/internal/apint"
	"repro/internal/ir"
)

// This file is the UB/poison propagation lattice: a per-value poison
// bound (AlwaysPoison) and per-flag firing proofs (FlagNeverFires), both
// phrased against the semantics in internal/semantics/exec.go — NOT
// against LLVM's documentation. The guaranteed-ub and dead-flag lint
// rules are the consumers, and they only ever act on a "proven" answer,
// so every rule below must be sound with respect to the encoder:
//
//   - constants, null, allocas and freeze results are never poison;
//   - strict ops (binary arithmetic, icmp, casts, gep) propagate operand
//     poison; div/rem propagate only the dividend's poison (a poison
//     divisor is immediate UB instead);
//   - poison is *generated* by nuw/nsw/exact flags, oversized shift
//     amounts, and the int_min/zero_is_poison intrinsic flags — each
//     needs a range/known-bits proof before it can be ruled out.
//
// "false" always means "could not prove", never "proven poisonous".

// AlwaysPoison reports whether v is provably poison on every execution
// that reaches it (its block may still be unreachable; reachability is
// the caller's concern).
func (fa *Facts) AlwaysPoison(v ir.Value) bool { return fa.alwaysPoisonRec(v, 0) }

func (fa *Facts) alwaysPoisonRec(v ir.Value, depth int) bool {
	switch x := v.(type) {
	case *ir.Poison:
		return true
	case *ir.Instr:
		if r, ok := fa.alwaysP[x]; ok {
			return r
		}
		if depth > maxFactsDepth || fa.inflightAP[x] {
			return false
		}
		fa.inflightAP[x] = true
		r := fa.computeAlwaysPoison(x, depth)
		delete(fa.inflightAP, x)
		fa.alwaysP[x] = r
		return r
	default:
		return false
	}
}

func (fa *Facts) computeAlwaysPoison(in *ir.Instr, depth int) bool {
	anyOp := func(idx ...int) bool {
		for _, i := range idx {
			if fa.alwaysPoisonRec(in.Args[i], depth+1) {
				return true
			}
		}
		return false
	}
	switch {
	case in.Op == ir.OpFreeze, in.Op == ir.OpAlloca:
		return false
	case in.Op.IsDivRem():
		// A poison divisor is UB, not poison; only the dividend carries
		// poison into the result.
		return anyOp(0)
	case in.Op.IsShift():
		if anyOp(0, 1) {
			return true
		}
		w, _ := ir.IsInt(in.Ty)
		amt := fa.RangeOf(in.Args[1], in.Parent())
		return amt.ULo >= uint64(w)
	case in.Op == ir.OpAdd:
		if anyOp(0, 1) {
			return true
		}
		if in.Nuw {
			w, _ := ir.IsInt(in.Ty)
			a := fa.RangeOf(in.Args[0], in.Parent())
			b := fa.RangeOf(in.Args[1], in.Parent())
			if lo, carry := addU64(a.ULo, b.ULo); carry || lo > apint.Mask(w) {
				return true
			}
		}
		return false
	case in.Op.IsBinary(), in.Op == ir.OpICmp, in.Op.IsCast(), in.Op == ir.OpGEP:
		idx := make([]int, len(in.Args))
		for i := range idx {
			idx[i] = i
		}
		return anyOp(idx...)
	case in.Op == ir.OpSelect:
		if anyOp(0) {
			return true
		}
		return fa.alwaysPoisonRec(in.Args[1], depth+1) && fa.alwaysPoisonRec(in.Args[2], depth+1)
	case in.Op == ir.OpPhi:
		if len(in.Args) == 0 {
			return false
		}
		for _, a := range in.Args {
			if !fa.alwaysPoisonRec(a, depth+1) {
				return false
			}
		}
		return true
	}
	return false
}

// FlagNeverFires reports, for each poison flag in's opcode can carry,
// whether range and known-bits facts prove the flag can never fire on
// defined operands — whether or not the flag is actually set. Unlike
// redundantFlags it reasons about variable shift amounts and divisors
// through their ranges, so it subsumes the constant-only arguments.
func (fa *Facts) FlagNeverFires(in *ir.Instr) (nuw, nsw, exact bool) {
	w, ok := ir.IsInt(in.Ty)
	if !ok {
		return false, false, false
	}
	at := in.Parent()
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl:
		a := fa.RangeOf(in.Args[0], at)
		b := fa.RangeOf(in.Args[1], at)
		return noUnsignedWrap(in.Op, a, b, w, apint.Mask(w)),
			noSignedWrap(in.Op, a, b, w), false
	case ir.OpLShr, ir.OpAShr:
		amt := fa.RangeOf(in.Args[1], at)
		if amt.UHi < uint64(w) {
			ka := fa.Known(in.Args[0])
			m := lowMask(int(amt.UHi))
			if ka.Zeros&m == m {
				return false, false, true
			}
		}
		return false, false, false
	case ir.OpUDiv, ir.OpSDiv:
		d := fa.RangeOf(in.Args[1], at)
		if !d.IsConst() {
			return false, false, false
		}
		c := d.ULo
		if kn := fa.Known(in.Args[0]); kn.IsConst() && c != 0 {
			return false, false, in.Op == ir.OpUDiv && kn.Const()%c == 0
		}
		if in.Op == ir.OpUDiv && apint.IsPowerOfTwo(c) {
			tz := bits.TrailingZeros64(c)
			ka := fa.Known(in.Args[0])
			m := lowMask(tz)
			return false, false, ka.Zeros&m == m
		}
		return false, false, false
	}
	return false, false, false
}
