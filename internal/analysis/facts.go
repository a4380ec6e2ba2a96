package analysis

import (
	"repro/internal/ir"
)

// maxFactsDepth bounds recursion through operand chains. Results are
// memoized, so the bound only matters for pathological chain depth (it
// caps the Go stack, not total work, which is O(instructions)).
const maxFactsDepth = 64

// guard is a fact of the form `pred(v, c)` that holds whenever control is
// in a particular block: either a dominating icmp-guarded CFG edge or a
// dominating llvm.assume established it.
type guard struct {
	v    ir.Value
	pred ir.Pred
	c    uint64
}

// Facts is the cached dataflow-fact provider for one function: known
// bits, value ranges (LVI-lite: refined by dominating guarded edges and
// assumes), and demanded bits, each computed lazily and memoized.
//
// Invalidation contract: any mutation of the function (instructions
// added, removed, reordered, operands or flags changed, CFG edits) makes
// every cached fact stale; the mutator MUST call Invalidate before the
// next query. Queries after a mutation without Invalidate may return
// unsound facts. Passes in internal/opt invalidate after every applied
// rewrite.
type Facts struct {
	F *ir.Function

	dom       *DomTree
	preds     map[*ir.Block][]*ir.Block
	known     map[ir.Value]KnownBits
	ranges    map[ir.Value]Range
	inflightK map[ir.Value]bool
	inflightR map[ir.Value]bool
	guards    map[*ir.Block][]guard
	demanded  map[*ir.Instr]uint64
	hasDem    bool

	// Poison-lattice memos (poison.go).
	alwaysP    map[*ir.Instr]bool
	inflightAP map[*ir.Instr]bool
}

// NewFacts returns an empty fact cache for f. Nothing is computed until
// the first query.
func NewFacts(f *ir.Function) *Facts {
	fa := &Facts{F: f}
	fa.reset()
	return fa
}

// reset empties the memos in place: passes invalidate after every
// rewrite, so reallocating them would cost a map per memo each time.
func (fa *Facts) reset() {
	fa.dom = nil
	fa.preds = nil
	fa.known = emptied(fa.known)
	fa.ranges = emptied(fa.ranges)
	fa.inflightK = emptied(fa.inflightK)
	fa.inflightR = emptied(fa.inflightR)
	fa.guards = emptied(fa.guards)
	fa.demanded = nil
	fa.hasDem = false
	fa.alwaysP = emptied(fa.alwaysP)
	fa.inflightAP = emptied(fa.inflightAP)
}

// emptied returns m cleared, or a new map when m is nil.
func emptied[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	clear(m)
	return m
}

// Invalidate drops every cached fact. Must be called after any mutation
// of the function.
func (fa *Facts) Invalidate() { fa.reset() }

// Dom returns the (cached) dominator tree.
func (fa *Facts) Dom() *DomTree {
	if fa.dom == nil {
		fa.dom = BuildDomTree(fa.F)
	}
	return fa.dom
}

func (fa *Facts) predMap() map[*ir.Block][]*ir.Block {
	if fa.preds == nil {
		fa.preds = make(map[*ir.Block][]*ir.Block, len(fa.F.Blocks))
		for _, b := range fa.F.Blocks {
			for _, s := range b.Succs() {
				fa.preds[s] = append(fa.preds[s], b)
			}
		}
	}
	return fa.preds
}

// Known returns the known-bits fact for v. For non-integer values the
// zero KnownBits (Width 0) is returned; callers check Width.
func (fa *Facts) Known(v ir.Value) KnownBits {
	w, ok := ir.IsInt(v.Type())
	if !ok {
		return KnownBits{}
	}
	return fa.knownRec(v, w, 0)
}

func (fa *Facts) knownRec(v ir.Value, w, depth int) KnownBits {
	switch x := v.(type) {
	case *ir.Const:
		return FromConst(w, x.Val)
	case *ir.Instr:
		if k, ok := fa.known[x]; ok {
			return k
		}
		if depth > maxFactsDepth || fa.inflightK[x] {
			return Unknown(w)
		}
		fa.inflightK[x] = true
		k := fa.computeKnown(x, w, depth)
		delete(fa.inflightK, x)
		fa.known[x] = k
		return k
	default:
		// Params, poison, pointers: nothing is known.
		return Unknown(w)
	}
}

func (fa *Facts) computeKnown(in *ir.Instr, w, depth int) KnownBits {
	arg := func(i int) KnownBits {
		a := in.Args[i]
		aw, ok := ir.IsInt(a.Type())
		if !ok {
			return KnownBits{}
		}
		return fa.knownRec(a, aw, depth+1)
	}
	switch in.Op {
	case ir.OpAdd:
		return arg(0).Add(arg(1))
	case ir.OpSub:
		return arg(0).Sub(arg(1))
	case ir.OpMul:
		return arg(0).Mul(arg(1))
	case ir.OpUDiv:
		return arg(0).UDiv(arg(1))
	case ir.OpURem:
		return arg(0).URem(arg(1))
	case ir.OpSDiv:
		// Both operands known non-negative: behaves as udiv.
		if a, b := arg(0), arg(1); a.SignKnownZero() && b.SignKnownZero() {
			return a.UDiv(b)
		}
		return Unknown(w)
	case ir.OpSRem:
		if a, b := arg(0), arg(1); a.SignKnownZero() && b.SignKnownZero() {
			return a.URem(b)
		}
		return Unknown(w)
	case ir.OpAnd:
		return arg(0).And(arg(1))
	case ir.OpOr:
		return arg(0).Or(arg(1))
	case ir.OpXor:
		return arg(0).Xor(arg(1))
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		b := arg(1)
		if !b.IsConst() {
			return Unknown(w)
		}
		c := b.Const()
		if c >= uint64(w) {
			// Always poison: any claim is vacuous.
			return Unknown(w)
		}
		switch in.Op {
		case ir.OpShl:
			return arg(0).ShlConst(int(c))
		case ir.OpLShr:
			return arg(0).LShrConst(int(c))
		default:
			return arg(0).AShrConst(int(c))
		}
	case ir.OpTrunc:
		return arg(0).TruncTo(w)
	case ir.OpZExt:
		return arg(0).ZExtTo(w)
	case ir.OpSExt:
		return arg(0).SExtTo(w)
	case ir.OpSelect:
		cw, ok := ir.IsInt(in.Args[0].Type())
		if ok {
			if c := fa.knownRec(in.Args[0], cw, depth+1); c.IsConst() {
				if c.Const() != 0 {
					return arg(1)
				}
				return arg(2)
			}
		}
		return arg(1).Union(arg(2))
	case ir.OpPhi:
		out := KnownBits{}
		for i := range in.Args {
			k := fa.knownRec(in.Args[i], w, depth+1)
			if out.Width == 0 {
				out = k
			} else {
				out = out.Union(k)
			}
		}
		if out.Width == 0 {
			return Unknown(w)
		}
		return out
	case ir.OpFreeze:
		// Freeze of poison takes arbitrary bits, so operand facts only
		// transfer when the operand can never be poison.
		if c, ok := in.Args[0].(*ir.Const); ok {
			return FromConst(w, c.Val)
		}
		return Unknown(w)
	case ir.OpICmp:
		aw, ok := ir.IsInt(in.Args[0].Type())
		if !ok {
			return Unknown(w)
		}
		ka := fa.knownRec(in.Args[0], aw, depth+1)
		kb := fa.knownRec(in.Args[1], aw, depth+1)
		// A known-bit disagreement decides eq/ne even when the ranges
		// overlap.
		if conflict := (ka.Ones & kb.Zeros) | (ka.Zeros & kb.Ones); conflict != 0 {
			if in.Pred == ir.EQ {
				return FromConst(1, 0)
			}
			if in.Pred == ir.NE {
				return FromConst(1, 1)
			}
		}
		ra := fa.rangeRec(in.Args[0], aw, depth+1)
		rb := fa.rangeRec(in.Args[1], aw, depth+1)
		if res, ok := DecideICmp(in.Pred, ra, rb); ok {
			if res {
				return FromConst(1, 1)
			}
			return FromConst(1, 0)
		}
		return Unknown(1)
	case ir.OpCall:
		k, ok := in.IsIntrinsicCall()
		if !ok {
			return Unknown(w)
		}
		switch k {
		case ir.IntrinsicSMax, ir.IntrinsicSMin, ir.IntrinsicUMax, ir.IntrinsicUMin:
			return arg(0).Union(arg(1))
		case ir.IntrinsicAbs:
			if a := arg(0); a.SignKnownZero() {
				return a
			}
			return Unknown(w)
		case ir.IntrinsicBswap:
			return arg(0).Bswap()
		case ir.IntrinsicCtpop, ir.IntrinsicCtlz, ir.IntrinsicCttz:
			return CountBound(w)
		default:
			return Unknown(w)
		}
	default:
		return Unknown(w)
	}
}

// RangeOf returns the range fact for v as observed by uses in block at.
// With at == nil the context-free range is returned; with a block, facts
// from dominating guarded edges and assume intrinsics are intersected in.
// For non-integer values the zero Range (Width 0) is returned.
func (fa *Facts) RangeOf(v ir.Value, at *ir.Block) Range {
	w, ok := ir.IsInt(v.Type())
	if !ok {
		return Range{}
	}
	r := fa.rangeRec(v, w, 0)
	if at != nil {
		for _, g := range fa.guardsFor(at) {
			if g.v == v {
				if gr, ok := rangeFromPred(g.pred, g.c, w); ok {
					r = r.Intersect(gr)
				}
			}
		}
	}
	return r
}

func (fa *Facts) rangeRec(v ir.Value, w, depth int) Range {
	switch x := v.(type) {
	case *ir.Const:
		return ConstRange(w, x.Val)
	case *ir.Instr:
		if r, ok := fa.ranges[x]; ok {
			return r
		}
		if depth > maxFactsDepth || fa.inflightR[x] {
			return FullRange(w)
		}
		fa.inflightR[x] = true
		r := fa.computeRange(x, w, depth)
		delete(fa.inflightR, x)
		fa.ranges[x] = r
		return r
	default:
		return FullRange(w)
	}
}

func (fa *Facts) computeRange(in *ir.Instr, w, depth int) Range {
	arg := func(i int) Range {
		a := in.Args[i]
		aw, ok := ir.IsInt(a.Type())
		if !ok {
			return Range{}
		}
		return fa.rangeRec(a, aw, depth+1)
	}
	var r Range
	switch in.Op {
	case ir.OpAdd:
		r = arg(0).Add(arg(1), in.Nuw, in.Nsw)
	case ir.OpSub:
		r = arg(0).Sub(arg(1), in.Nuw, in.Nsw)
	case ir.OpMul:
		r = arg(0).Mul(arg(1), in.Nuw)
	case ir.OpUDiv:
		r = arg(0).UDiv(arg(1))
	case ir.OpURem:
		r = arg(0).URem(arg(1))
	case ir.OpShl:
		r = arg(0).Shl(arg(1), in.Nuw)
	case ir.OpLShr:
		r = arg(0).LShr(arg(1))
	case ir.OpAShr:
		r = arg(0).AShr(arg(1))
	case ir.OpZExt:
		r = arg(0).ZExt(w)
	case ir.OpSExt:
		r = arg(0).SExt(w)
	case ir.OpTrunc:
		r = arg(0).Trunc(w)
	case ir.OpICmp:
		r = BoolRange()
	case ir.OpSelect:
		r = arg(1).Union(arg(2))
	case ir.OpPhi:
		got := false
		for i := range in.Args {
			ri := fa.rangeRec(in.Args[i], w, depth+1)
			if !got {
				r, got = ri, true
			} else {
				r = r.Union(ri)
			}
		}
		if !got {
			r = FullRange(w)
		}
	case ir.OpFreeze:
		if c, ok := in.Args[0].(*ir.Const); ok {
			r = ConstRange(w, c.Val)
		} else {
			r = FullRange(w)
		}
	case ir.OpCall:
		k, ok := in.IsIntrinsicCall()
		if !ok {
			return FullRange(w).Intersect(FromKnown(fa.knownRec(in, w, depth)))
		}
		switch k {
		case ir.IntrinsicSMax:
			r = arg(0).SMax(arg(1))
		case ir.IntrinsicSMin:
			r = arg(0).SMin(arg(1))
		case ir.IntrinsicUMax:
			r = arg(0).UMax(arg(1))
		case ir.IntrinsicUMin:
			r = arg(0).UMin(arg(1))
		case ir.IntrinsicAbs:
			minPoison := false
			if c, ok := in.Args[1].(*ir.Const); ok {
				minPoison = c.Val != 0
			}
			r = arg(0).Abs(minPoison)
		case ir.IntrinsicUAddSat:
			r = arg(0).UAddSat(arg(1))
		case ir.IntrinsicSAddSat:
			r = arg(0).SAddSat(arg(1))
		case ir.IntrinsicUSubSat:
			r = arg(0).USubSat(arg(1))
		case ir.IntrinsicSSubSat:
			r = arg(0).SSubSat(arg(1))
		case ir.IntrinsicCtpop, ir.IntrinsicCtlz, ir.IntrinsicCttz:
			r = CountRange(w)
		default:
			r = FullRange(w)
		}
	default:
		r = FullRange(w)
	}
	// Bit-level knowledge always intersects in (it is claimed for the
	// same non-poison executions).
	return r.Intersect(FromKnown(fa.knownRec(in, w, depth)))
}

// guardsFor collects the guards that hold whenever control is in b: for
// each block d on b's dominator chain (including b itself), the
// icmp-against-constant conditions of assume calls in d, and the branch
// condition of the edge into d when d has a unique predecessor ending in
// a conditional branch with distinct targets.
func (fa *Facts) guardsFor(b *ir.Block) []guard {
	if gs, ok := fa.guards[b]; ok {
		return gs
	}
	dom := fa.Dom()
	preds := fa.predMap()
	gs := []guard{}
	for d := b; d != nil; d = dom.IDom(d) {
		for _, in := range d.Instrs {
			if in.Op == ir.OpCall {
				if k, ok := in.IsIntrinsicCall(); ok && k == ir.IntrinsicAssume {
					gs = appendCondGuards(gs, in.Args[0], true)
				}
			}
		}
		if ps := preds[d]; len(ps) == 1 {
			t := ps[0].Term()
			if t != nil && t.Op == ir.OpCondBr && t.Targets[0] != t.Targets[1] {
				if t.Targets[0] == d {
					gs = appendCondGuards(gs, t.Args[0], true)
				} else if t.Targets[1] == d {
					gs = appendCondGuards(gs, t.Args[0], false)
				}
			}
		}
	}
	fa.guards[b] = gs
	return gs
}

// appendCondGuards records the constraint of cond being taken (or not)
// when cond is an icmp against a constant.
func appendCondGuards(gs []guard, cond ir.Value, taken bool) []guard {
	ic, ok := cond.(*ir.Instr)
	if !ok || ic.Op != ir.OpICmp {
		return gs
	}
	pred := ic.Pred
	var v ir.Value
	var c uint64
	if rc, ok := ic.Args[1].(*ir.Const); ok {
		v, c = ic.Args[0], rc.Val
	} else if lc, ok := ic.Args[0].(*ir.Const); ok {
		v, c, pred = ic.Args[1], lc.Val, pred.Swapped()
	} else {
		return gs
	}
	if !taken {
		pred = pred.Inverse()
	}
	return append(gs, guard{v: v, pred: pred, c: c})
}
