package mutate

import (
	"fmt"

	"repro/internal/apint"
	"repro/internal/ir"
	"repro/internal/rng"
)

// mutateBitwidth implements the paper's §IV-H: re-create a path of the SSA
// use tree at a different bitwidth. Starting from a random root, a chain
// of bitwidth-polymorphic binary instructions is rebuilt at a freshly
// chosen width, with truncations/extensions adapting the off-path operands
// on entry and a final extension/truncation adapting the result on exit
// (Listing 13, Figs. 4–5). The original instructions are left in place for
// their other users; only the last path node's uses are redirected.
func mutateBitwidth(r *rng.Rand, f *ir.Function, traced bool) (string, bool) {
	// Candidate roots: binary instructions. All our binary opcodes are
	// fully bitwidth-polymorphic; instructions like icmp (fixed i1 result)
	// or bswap (16/32/64 only) are excluded by construction, which is the
	// paper's eligibility rule.
	var roots []*ir.Instr
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		if in.Op.IsBinary() {
			roots = append(roots, in)
		}
		return true
	})
	if len(roots) == 0 {
		return "", false
	}
	root := roots[r.Intn(len(roots))]
	oldW := root.Ty.(ir.IntType).Bits

	// Choose the new width.
	newW := 1 + r.Intn(apint.MaxWidth)
	for newW == oldW {
		newW = 1 + r.Intn(apint.MaxWidth)
	}
	newTy := ir.Int(newW)

	// Extend the path: follow users that are same-width binary ops.
	path := []*ir.Instr{root}
	cur := root
	for r.Chance(2, 3) {
		var nexts []*ir.Instr
		for _, u := range f.UsersOf(cur) {
			if u.Op.IsBinary() && ir.TypesEqual(u.Ty, root.Ty) {
				nexts = append(nexts, u)
			}
		}
		if len(nexts) == 0 {
			break
		}
		cur = nexts[r.Intn(len(nexts))]
		path = append(path, cur)
	}

	// adapt brings a value of the old width to the new width at a point
	// just before anchor.
	adapt := func(v ir.Value, anchor *ir.Instr) ir.Value {
		if c, ok := v.(*ir.Const); ok {
			if newW < oldW {
				return ir.NewConst(newTy, apint.Trunc(c.Val, newW))
			}
			if r.Bool() {
				return ir.NewConst(newTy, apint.SExt(c.Val, oldW, newW))
			}
			return ir.NewConst(newTy, apint.ZExt(c.Val, oldW, newW))
		}
		var cast *ir.Instr
		if newW < oldW {
			cast = ir.NewCast(ir.OpTrunc, f.FreshName("bw"), v, newTy)
		} else if r.Bool() {
			cast = ir.NewCast(ir.OpSExt, f.FreshName("bw"), v, newTy)
		} else {
			cast = ir.NewCast(ir.OpZExt, f.FreshName("bw"), v, newTy)
		}
		b := anchor.Parent()
		b.InsertAt(b.IndexOf(anchor), cast)
		return cast
	}

	// Rebuild the path at the new width. newOf maps old path nodes to
	// their new-width counterparts.
	newOf := make(map[*ir.Instr]*ir.Instr, len(path))
	for i, old := range path {
		args := make([]ir.Value, 2)
		for ai, a := range old.Args {
			if i > 0 && a == path[i-1] {
				args[ai] = newOf[path[i-1]]
				continue
			}
			args[ai] = adapt(a, old)
		}
		ni := ir.NewBinary(old.Op, f.FreshName("new"), args[0], args[1])
		ni.Nuw, ni.Nsw, ni.Exact = old.Nuw, old.Nsw, old.Exact
		b := old.Parent()
		b.InsertAt(b.IndexOf(old), ni)
		newOf[old] = ni
	}

	// Adapt the final value back to the original width and redirect the
	// last node's uses (Listing 13's %last).
	last := path[len(path)-1]
	nlast := newOf[last]
	var back *ir.Instr
	if newW < oldW {
		if r.Bool() {
			back = ir.NewCast(ir.OpSExt, f.FreshName("last"), nlast, ir.Int(oldW))
		} else {
			back = ir.NewCast(ir.OpZExt, f.FreshName("last"), nlast, ir.Int(oldW))
		}
	} else {
		back = ir.NewCast(ir.OpTrunc, f.FreshName("last"), nlast, ir.Int(oldW))
	}
	lb := last.Parent()
	lb.InsertAt(lb.IndexOf(last)+1, back)
	// Redirect uses of the old last node — except the freshly inserted
	// back-cast itself must keep... the back-cast uses nlast, not last, so
	// a blanket replace is safe.
	f.ReplaceUses(last, back)
	return lineage(traced, func() string {
		return fmt.Sprintf("bitwidth %s w%d -> w%d len%d", instrRef(root), oldW, newW, len(path))
	}), true
}
