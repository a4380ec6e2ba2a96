package opt

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// GVNPass performs dominance-based global value numbering over pure
// instructions plus block-local store-to-load forwarding, modelled on
// LLVM's GVN/NewGVN.
type GVNPass struct{}

// Name implements Pass.
func (*GVNPass) Name() string { return "gvn" }

// Run implements Pass.
func (p *GVNPass) Run(ctx *Context, f *ir.Function) bool {
	changed := false
	dom := analysis.BuildDomTree(f)

	keys := gvnKeyer{ids: make(map[ir.Value]uint64)}

	// Seeded flag-merge defect 53218: value numbering ignores poison flags
	// and replaces a flagless instruction with a flagged leader, importing
	// poison the original did not have.
	withFlags := !ctx.Bugs.On(Bug53218GVNFlagMerge)

	leaders := make(map[gvnKey]*ir.Instr)

	// Visit blocks in a dominator-tree preorder so leaders dominate their
	// duplicates.
	var order []*ir.Block
	var visit func(b *ir.Block)
	children := make(map[*ir.Block][]*ir.Block)
	for _, b := range f.Blocks {
		if id := dom.IDom(b); id != nil {
			children[id] = append(children[id], b)
		}
	}
	visit = func(b *ir.Block) {
		order = append(order, b)
		for _, c := range children[b] {
			visit(c)
		}
	}
	visit(f.Entry())

	for _, b := range order {
		// Block-local store-to-load forwarding state.
		var lastStoreVal ir.Value
		var lastStorePtr ir.Value

		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]

			// Seeded crash 51618: "PHI nodes with undef input".
			if ctx.Bugs.On(Bug51618PhiUndefGVN) && in.Op == ir.OpPhi {
				for _, a := range in.Args {
					if isPoisonVal(a) {
						crash(Bug51618PhiUndefGVN, "leader lookup on phi with undef input: %s", in.String())
					}
				}
			}

			switch in.Op {
			case ir.OpStore:
				lastStoreVal, lastStorePtr = in.Args[0], in.Args[1]
				continue
			case ir.OpCall:
				if kind, isIntr := in.IsIntrinsicCall(); !isIntr || kind == ir.IntrinsicAssume {
					// Unknown calls clobber; assumes are sequence points
					// we choose not to forward across.
					lastStoreVal, lastStorePtr = nil, nil
				}
				continue
			case ir.OpLoad:
				// Forward only from an immediately-preceding store to the
				// *same* SSA pointer with no intervening clobber; width
				// must match.
				if lastStorePtr != nil && in.Args[0] == lastStorePtr &&
					ir.TypesEqual(in.Ty, lastStoreVal.Type()) {
					replaceAllUses(f, in, lastStoreVal)
					b.Remove(i)
					i--
					ctx.stat("gvn.load-forward")
					changed = true
				}
				continue
			}

			if hasSideEffects(ctx.Mod, in) || ir.IsVoid(in.Ty) {
				continue
			}
			key, ok := keys.key(in, withFlags)
			if !ok {
				continue
			}
			if leader, dup := leaders[key]; dup {
				// The leader must dominate this use site to be reused.
				lb := leader.Parent()
				if lb != nil && (lb == b || dom.StrictlyDominates(lb, b)) {
					replaceAllUses(f, in, leader)
					b.Remove(i)
					i--
					ctx.stat("gvn.cse")
					changed = true
					continue
				}
				// Seeded crash 58423: the CSE builder's cache outlives the
				// leader's validity — reusing an entry whose instruction
				// does not dominate (or was removed) trips an assertion.
				if ctx.Bugs.On(Bug58423CSEReuseRemoved) {
					crash(Bug58423CSEReuseRemoved, "CSE builder reused stale leader %%%s", leader.Nm)
				}
			}
			leaders[key] = in
		}
	}
	return changed
}

// gvnKey gives structurally-equal pure instructions equal keys: opcode,
// result type, predicate (icmp only), poison flags (when they count) and
// up to three operands.
type gvnKey struct {
	op    ir.Op
	ty    string
	pred  ir.Pred
	flags uint8
	arity int
	args  [3]gvnOperand
}

// gvnOperand identifies an operand. Constants are numbered by value
// (distinct *Const objects with equal bits are the same value), poison by
// its type, and everything else by identity, as a number the keyer hands
// out in visit order (SSA values are unique).
type gvnOperand struct {
	kind uint8  // operandConst, operandPoison, operandNull or operandValue
	bits int    // constant width
	val  uint64 // constant bits, or value number
	ty   string // poison's type
}

const (
	operandConst uint8 = iota
	operandPoison
	operandNull
	operandValue
)

// less is a total order on operands, used to put the operands of
// commutative instructions in one canonical order.
func (a gvnOperand) less(b gvnOperand) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.bits != b.bits {
		return a.bits < b.bits
	}
	if a.val != b.val {
		return a.val < b.val
	}
	return a.ty < b.ty
}

// gvnKeyer builds keys for one function, numbering operand values on
// first sight.
type gvnKeyer struct {
	ids map[ir.Value]uint64
}

func (k *gvnKeyer) operand(a ir.Value) gvnOperand {
	switch v := a.(type) {
	case *ir.Const:
		return gvnOperand{kind: operandConst, bits: v.Ty.Bits, val: v.Val}
	case *ir.Poison:
		return gvnOperand{kind: operandPoison, ty: v.Ty.String()}
	case *ir.NullPtr:
		return gvnOperand{kind: operandNull}
	}
	id, ok := k.ids[a]
	if !ok {
		id = uint64(len(k.ids))
		k.ids[a] = id
	}
	return gvnOperand{kind: operandValue, val: id}
}

// key returns the value-numbering key of a pure instruction, or false
// when the instruction is not one GVN numbers.
func (k *gvnKeyer) key(in *ir.Instr, withFlags bool) (gvnKey, bool) {
	switch {
	case in.Op.IsBinary(), in.Op == ir.OpICmp, in.Op == ir.OpSelect,
		in.Op.IsCast(), in.Op == ir.OpGEP:
	default:
		return gvnKey{}, false
	}
	key := gvnKey{op: in.Op, ty: in.Ty.String(), arity: len(in.Args)}
	if in.Op == ir.OpICmp {
		key.pred = in.Pred
	}
	if withFlags {
		key.flags = b2u(in.Nuw) | b2u(in.Nsw)<<1 | b2u(in.Exact)<<2
	}
	for i, a := range in.Args {
		key.args[i] = k.operand(a)
	}
	if (in.Op.IsCommutative() || (in.Op == ir.OpICmp && (in.Pred == ir.EQ || in.Pred == ir.NE))) &&
		key.arity == 2 && key.args[1].less(key.args[0]) {
		key.args[0], key.args[1] = key.args[1], key.args[0]
	}
	return key, true
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
