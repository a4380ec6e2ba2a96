package opt

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// Mem2RegPass promotes allocas whose only uses are same-width loads and
// stores directly on the alloca pointer into SSA values, inserting phis at
// dominance frontiers — the classic SSA-construction algorithm, standing
// in for LLVM's SROA/mem2reg.
type Mem2RegPass struct{}

// Name implements Pass.
func (*Mem2RegPass) Name() string { return "mem2reg" }

// Run implements Pass.
func (p *Mem2RegPass) Run(ctx *Context, f *ir.Function) bool {
	changed := false
	attempted := make(map[*ir.Instr]bool)
	for {
		a := findPromotable(ctx, f, attempted)
		if a == nil {
			return changed
		}
		attempted[a] = true
		promote(ctx, f, a)
		ctx.stat("mem2reg")
		changed = true
	}
}

// findPromotable returns an alloca whose uses are all full-width direct
// loads/stores (and which therefore cannot escape).
func findPromotable(ctx *Context, f *ir.Function, attempted map[*ir.Instr]bool) *ir.Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpAlloca || attempted[in] {
				continue
			}
			if _, ok := ir.IsInt(in.AllocTy); !ok {
				continue
			}
			ok := true
			mixedWidth := false
			for _, u := range f.UsersOf(in) {
				switch {
				case u.Op == ir.OpLoad && u.Args[0] == in:
					if !ir.TypesEqual(u.Ty, in.AllocTy) {
						mixedWidth = true
						ok = false
					}
				case u.Op == ir.OpStore && u.Args[1] == in && u.Args[0] != in:
					if !ir.TypesEqual(u.Args[0].Type(), in.AllocTy) {
						mixedWidth = true
						ok = false
					}
				default:
					ok = false
				}
			}
			// Seeded crash 72035: the slice rewriter mishandles an alloca
			// accessed at two different widths.
			if mixedWidth && ctx.Bugs.On(Bug72035SROARewriter) {
				crash(Bug72035SROARewriter, "mixed-width slices of %%%s", in.Nm)
			}
			if ok {
				return in
			}
		}
	}
	return nil
}

// promote rewrites all loads/stores of the alloca into SSA form.
func promote(ctx *Context, f *ir.Function, a *ir.Instr) {
	dom := analysis.BuildDomTree(f)
	elemTy := a.AllocTy.(ir.IntType)

	// Blocks containing stores (defs).
	defBlocks := make(map[*ir.Block]bool)
	for _, u := range f.UsersOf(a) {
		if u.Op == ir.OpStore {
			defBlocks[u.Parent()] = true
		}
	}

	// Dominance frontier via the classic predecessor-walk construction.
	preds := make(map[*ir.Block][]*ir.Block)
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	frontier := make(map[*ir.Block]map[*ir.Block]bool)
	for _, b := range f.Blocks {
		if len(preds[b]) < 2 {
			continue
		}
		for _, pr := range preds[b] {
			if !dom.Reachable(pr) {
				continue
			}
			runner := pr
			for runner != nil && runner != dom.IDom(b) {
				if frontier[runner] == nil {
					frontier[runner] = make(map[*ir.Block]bool)
				}
				frontier[runner][b] = true
				runner = dom.IDom(runner)
			}
		}
	}

	// Iterated dominance frontier → phi placement.
	phiBlocks := make(map[*ir.Block]*ir.Instr)
	work := make([]*ir.Block, 0, len(defBlocks))
	for b := range defBlocks {
		work = append(work, b)
	}
	inWork := make(map[*ir.Block]bool)
	for _, b := range work {
		inWork[b] = true
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for fb := range frontier[b] {
			if _, has := phiBlocks[fb]; has || !dom.Reachable(fb) {
				continue
			}
			phi := ir.NewPhi(f.FreshName("m2r"), elemTy)
			fb.InsertAt(0, phi)
			phiBlocks[fb] = phi
			if !inWork[fb] {
				inWork[fb] = true
				work = append(work, fb)
			}
		}
	}

	// Rename: DFS over the dominator tree carrying the current value.
	children := make(map[*ir.Block][]*ir.Block)
	for _, b := range f.Blocks {
		if id := dom.IDom(b); id != nil {
			children[id] = append(children[id], b)
		}
	}
	var rename func(b *ir.Block, cur ir.Value)
	rename = func(b *ir.Block, cur ir.Value) {
		if phi, ok := phiBlocks[b]; ok {
			cur = phi
		}
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			switch {
			case in.Op == ir.OpLoad && in.Args[0] == a:
				if cur == nil {
					// Load before any store: uninitialized → poison.
					replaceAllUses(f, in, &ir.Poison{Ty: elemTy})
				} else {
					replaceAllUses(f, in, cur)
				}
				b.Remove(i)
				i--
			case in.Op == ir.OpStore && in.Args[1] == a:
				cur = in.Args[0]
				b.Remove(i)
				i--
			}
		}
		// Fill phi operands of successors.
		for _, s := range b.Succs() {
			if phi, ok := phiBlocks[s]; ok {
				val := cur
				if val == nil {
					val = &ir.Poison{Ty: elemTy}
				}
				// A CFG edge may be recorded once per terminator slot.
				already := false
				for _, pb := range phi.Preds {
					if pb == b {
						already = true
					}
				}
				if !already {
					phi.AddIncoming(val, b)
				}
			}
		}
		for _, c := range children[b] {
			rename(c, cur)
		}
	}
	rename(f.Entry(), nil)

	// The alloca is now unused.
	if b := a.Parent(); b != nil {
		if idx := b.IndexOf(a); idx >= 0 && !f.HasUsers(a) {
			b.Remove(idx)
		}
	}
}
