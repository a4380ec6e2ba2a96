package mutate

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rng"
)

// Each operator returns (site, ok): ok reports whether it applied, and
// site is the lineage metadata naming the program point it touched (see
// Trace). Sites are descriptive only — nothing downstream parses them.

// lineage renders a trace site, right after the operator applied, only when
// the mutant is traced: an untraced mutant pays nothing for lineage.
func lineage(traced bool, render func() string) string {
	if !traced {
		return ""
	}
	return render()
}

// instrRef renders an instruction for a trace site: its SSA name when it
// has one, otherwise its opcode plus position within its block.
func instrRef(in *ir.Instr) string {
	if in.Nm != "" {
		return "%" + in.Nm
	}
	if b := in.Parent(); b != nil {
		return fmt.Sprintf("%s@%s[%d]", in.Op, b.Name(), b.IndexOf(in))
	}
	return in.Op.String()
}

// --- §IV-A: attribute mutation ---

// mutateAttributes randomly toggles one function attribute, one parameter
// attribute, or an access alignment (Listing 5).
func mutateAttributes(r *rng.Rand, f *ir.Function, traced bool) (string, bool) {
	switch r.Intn(3) {
	case 0: // function attribute
		var name string
		switch r.Intn(5) {
		case 0:
			f.Attrs.Nofree = !f.Attrs.Nofree
			name = "nofree"
		case 1:
			f.Attrs.Willreturn = !f.Attrs.Willreturn
			name = "willreturn"
		case 2:
			f.Attrs.Norecurse = !f.Attrs.Norecurse
			name = "norecurse"
		case 3:
			f.Attrs.Nounwind = !f.Attrs.Nounwind
			name = "nounwind"
		default:
			f.Attrs.Nosync = !f.Attrs.Nosync
			name = "nosync"
		}
		return lineage(traced, func() string { return "toggle func attr " + name }), true
	case 1: // parameter attribute
		var ptrParams []*ir.Param
		for _, p := range f.Params {
			if ir.IsPtr(p.Ty) {
				ptrParams = append(ptrParams, p)
			}
		}
		if len(ptrParams) == 0 {
			return "", false
		}
		p := ptrParams[r.Intn(len(ptrParams))]
		var name string
		switch r.Intn(4) {
		case 0:
			p.Attrs.Nocapture = !p.Attrs.Nocapture
			name = "nocapture"
		case 1:
			p.Attrs.Nonnull = !p.Attrs.Nonnull
			name = "nonnull"
		case 2:
			p.Attrs.Readonly = !p.Attrs.Readonly
			name = "readonly"
		default:
			if p.Attrs.Dereferenceable == 0 {
				p.Attrs.Dereferenceable = 1 + r.Uint64n(64)
			} else {
				p.Attrs.Dereferenceable = 0
			}
			if traced {
				name = fmt.Sprintf("dereferenceable(%d)", p.Attrs.Dereferenceable)
			}
		}
		return lineage(traced, func() string { return "toggle param %" + p.Nm + " attr " + name }), true
	default: // access alignment (incl. exotic values, cf. bug 64687)
		var mems []*ir.Instr
		f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) bool {
			if in.Op == ir.OpLoad || in.Op == ir.OpStore {
				mems = append(mems, in)
			}
			return true
		})
		if len(mems) == 0 {
			return "", false
		}
		in := mems[r.Intn(len(mems))]
		if r.Chance(1, 4) {
			in.Align = 1 + r.Uint64n(255) // possibly non-power-of-two
		} else {
			in.Align = uint64(1) << uint(r.Intn(5))
		}
		return lineage(traced, func() string {
			return fmt.Sprintf("align %s = %d", instrRef(in), in.Align)
		}), true
	}
}

// --- §IV-B: inlining the "wrong" function ---

// mutateInline picks a call and inlines the body of a *different* defined
// function with a compatible signature (Listing 6). Only single-block
// callees are spliced, keeping the caller's block structure intact.
func mutateInline(r *rng.Rand, mod *ir.Module, f *ir.Function, traced bool) (string, bool) {
	type site struct {
		b   *ir.Block
		idx int
		in  *ir.Instr
	}
	var sites []site
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCall {
				if _, isIntr := in.IsIntrinsicCall(); !isIntr {
					sites = append(sites, site{b, i, in})
				}
			}
		}
	}
	if len(sites) == 0 {
		return "", false
	}
	s := sites[r.Intn(len(sites))]

	// Candidate bodies: defined, single-block, signature-compatible, not
	// the function being mutated, not the intended callee.
	var cands []*ir.Function
	for _, g := range mod.Defs() {
		if g == f || g.Name == s.in.Callee || len(g.Blocks) != 1 {
			continue
		}
		if !ir.TypesEqual(g.Sig(), s.in.Sig) {
			continue
		}
		cands = append(cands, g)
	}
	if len(cands) == 0 {
		return "", false
	}
	g := cands[r.Intn(len(cands))]

	// Splice g's body before the call, remapping parameters to the call's
	// arguments and values to fresh names.
	gc := g.Clone()
	valMap := make(map[ir.Value]ir.Value)
	for i, p := range gc.Params {
		valMap[p] = s.in.Args[i]
	}
	var retVal ir.Value
	insertAt := s.idx
	for _, in := range gc.Entry().Instrs {
		if in.Op.IsTerminator() {
			if in.Op == ir.OpRet && len(in.Args) == 1 {
				retVal = remap(valMap, in.Args[0])
			}
			break
		}
		for ai, a := range in.Args {
			in.Args[ai] = remap(valMap, a)
		}
		if !ir.IsVoid(in.Ty) {
			in.Nm = f.FreshName("inl")
		}
		s.b.InsertAt(insertAt, in)
		valMap[in] = in
		insertAt++
	}
	// Remove the call; rewire its uses to the inlined return value.
	callIdx := s.b.IndexOf(s.in)
	s.b.Remove(callIdx)
	if retVal != nil && !ir.IsVoid(s.in.Ty) {
		f.ReplaceUses(s.in, retVal)
	} else if !ir.IsVoid(s.in.Ty) {
		f.ReplaceUses(s.in, &ir.Poison{Ty: s.in.Ty})
	}
	return lineage(traced, func() string {
		return fmt.Sprintf("inline @%s at call @%s in %s", g.Name, s.in.Callee, s.b.Name())
	}), true
}

func remap(m map[ir.Value]ir.Value, v ir.Value) ir.Value {
	if nv, ok := m[v]; ok {
		return nv
	}
	return v
}

// --- §IV-C: removing void calls ---

// mutateRemoveCall deletes a random void call (Listing 7).
func mutateRemoveCall(r *rng.Rand, f *ir.Function, traced bool) (string, bool) {
	type site struct {
		b   *ir.Block
		idx int
	}
	var sites []site
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCall && ir.IsVoid(in.Ty) {
				sites = append(sites, site{b, i})
			}
		}
	}
	if len(sites) == 0 {
		return "", false
	}
	s := sites[r.Intn(len(sites))]
	callee := s.b.Instrs[s.idx].Callee
	s.b.Remove(s.idx)
	return lineage(traced, func() string {
		return fmt.Sprintf("remove call @%s in %s", callee, s.b.Name())
	}), true
}

// --- §IV-D: shuffling independent instructions ---

// mutateShuffle permutes one precomputed shufflable range (Listing 8).
func mutateShuffle(r *rng.Rand, ov *analysis.Overlay, traced bool) (string, bool) {
	ranges := ov.ShuffleRanges()
	if len(ranges) == 0 {
		return "", false
	}
	rg := ranges[r.Intn(len(ranges))]
	n := rg.Len()
	perm := r.Perm(n)
	tmp := make([]*ir.Instr, n)
	for i, p := range perm {
		tmp[i] = rg.Block.Instrs[rg.Start+p]
	}
	copy(rg.Block.Instrs[rg.Start:rg.End], tmp)
	return lineage(traced, func() string {
		return fmt.Sprintf("shuffle %s[%d:%d)", rg.Block.Name(), rg.Start, rg.End)
	}), true
}

// --- §IV-E: arithmetic mutations ---

// mutateArith randomly changes an operation, swaps operands, toggles
// flags, changes an icmp predicate, or replaces a literal constant
// (Listing 9).
func mutateArith(r *rng.Rand, f *ir.Function, ov *analysis.Overlay, traced bool) (string, bool) {
	switch r.Intn(4) {
	case 0: // change the operation / toggle flags / swap operands
		var bins []*ir.Instr
		f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) bool {
			if in.Op.IsBinary() {
				bins = append(bins, in)
			}
			return true
		})
		if len(bins) == 0 {
			return "", false
		}
		in := bins[r.Intn(len(bins))]
		switch r.Intn(3) {
		case 0:
			in.Op = ir.BinaryOps[r.Intn(len(ir.BinaryOps))]
			// Flags valid for the old op may be invalid for the new one.
			if !in.Op.HasWrapFlags() {
				in.Nuw, in.Nsw = false, false
			}
			if !in.Op.HasExactFlag() {
				in.Exact = false
			}
			return lineage(traced, func() string {
				return fmt.Sprintf("opcode %s -> %s", instrRef(in), in.Op)
			}), true
		case 1:
			in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
			return lineage(traced, func() string { return "swap operands " + instrRef(in) }), true
		default:
			randomFlags(r, in)
			return lineage(traced, func() string { return "flags " + instrRef(in) }), true
		}
	case 1: // change an icmp predicate
		var cmps []*ir.Instr
		f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) bool {
			if in.Op == ir.OpICmp {
				cmps = append(cmps, in)
			}
			return true
		})
		if len(cmps) == 0 {
			return "", false
		}
		in := cmps[r.Intn(len(cmps))]
		in.Pred = ir.Preds[r.Intn(len(ir.Preds))]
		return lineage(traced, func() string {
			return fmt.Sprintf("predicate %s -> %s", instrRef(in), in.Pred)
		}), true
	default: // replace a literal constant (2/4 of draws: constants are rich)
		sites := ov.ConstSites()
		if len(sites) == 0 {
			return "", false
		}
		s := sites[r.Intn(len(sites))]
		old, ok := s.Instr.Args[s.Arg].(*ir.Const)
		if !ok {
			return "", false // stale site after a prior mutation
		}
		s.Instr.Args[s.Arg] = randomConst(r, old.Ty)
		return lineage(traced, func() string {
			return fmt.Sprintf("const %s arg%d = %s", instrRef(s.Instr), s.Arg,
				ir.OperandString(s.Instr.Args[s.Arg]))
		}), true
	}
}

// --- §IV-F: mutating uses ---

// mutateUses replaces one SSA use with a value from the random-value
// primitive (Listings 10 and 11).
func mutateUses(r *rng.Rand, f *ir.Function, ov *analysis.Overlay, traced bool) (string, bool) {
	type use struct {
		b   *ir.Block
		in  *ir.Instr
		arg int
	}
	var uses []use
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				continue
			}
			for ai, a := range in.Args {
				// Skip pointer operands of memory ops: replacing those
				// with arbitrary values tends to produce functions Alive2
				// (and our validator) reject wholesale.
				if ir.IsPtr(a.Type()) {
					continue
				}
				uses = append(uses, use{b, in, ai})
			}
		}
	}
	if len(uses) == 0 {
		return "", false
	}
	u := uses[r.Intn(len(uses))]
	v := randomValueAt(r, f, ov, point{u.b, u.in}, u.in.Args[u.arg].Type(), 2)
	u.in.Args[u.arg] = v
	return lineage(traced, func() string {
		return fmt.Sprintf("use %s arg%d = %s", instrRef(u.in), u.arg, ir.OperandString(v))
	}), true
}

// --- §IV-G: moving instructions ---

// mutateMove relocates an instruction within its block and repairs SSA
// with the random-value primitive (Listing 12): operands that no longer
// dominate the instruction, and uses the instruction no longer dominates,
// are replaced with random values.
func mutateMove(r *rng.Rand, f *ir.Function, ov *analysis.Overlay, traced bool) (string, bool) {
	var cands []*ir.Instr
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		if !in.Op.IsTerminator() && in.Op != ir.OpPhi {
			cands = append(cands, in)
		}
		return true
	})
	if len(cands) == 0 {
		return "", false
	}
	in := cands[r.Intn(len(cands))]
	b := in.Parent()
	oldIdx := b.IndexOf(in)

	// Legal destination slots: after the phis, before the terminator.
	firstSlot := len(b.Phis())
	lastSlot := len(b.Instrs) - 1 // before terminator
	if lastSlot <= firstSlot {
		return "", false
	}
	newIdx := firstSlot + r.Intn(lastSlot-firstSlot)
	if newIdx == oldIdx {
		return "", false
	}

	b.Remove(oldIdx)
	if newIdx > oldIdx {
		// Removing shifted the tail left by one.
		b.InsertAt(newIdx, in)
	} else {
		b.InsertAt(newIdx, in)
	}

	// Repair 1: operands that no longer dominate the moved instruction
	// (moved earlier past its defs).
	at := point{b, in}
	for ai, a := range in.Args {
		if def, ok := a.(*ir.Instr); ok {
			if !ov.ValueDominatesPoint(def, b, b.IndexOf(in)) {
				in.Args[ai] = randomValueAt(r, f, ov, at, a.Type(), 2)
			}
		}
	}
	// Repair 2: uses of the moved instruction that it no longer dominates
	// (moved later past its users).
	for _, user := range f.UsersOf(in) {
		if user == in {
			continue
		}
		ub := user.Parent()
		for ai, a := range user.Args {
			if a != in {
				continue
			}
			uidx := ub.IndexOf(user)
			if user.Op == ir.OpPhi {
				// Check at the end of the incoming block instead.
				pred := user.Preds[ai]
				if ov.ValueDominatesPoint(in, pred, len(pred.Instrs)) {
					continue
				}
				user.Args[ai] = randomValueAt(r, f, ov, point{pred, pred.Instrs[len(pred.Instrs)-1]}, in.Ty, 2)
				continue
			}
			if !ov.ValueDominatesPoint(in, ub, uidx) {
				user.Args[ai] = randomValueAt(r, f, ov, point{ub, user}, in.Ty, 2)
			}
		}
	}
	return lineage(traced, func() string {
		return fmt.Sprintf("move %s %d -> %d in %s", instrRef(in), oldIdx, newIdx, b.Name())
	}), true
}
