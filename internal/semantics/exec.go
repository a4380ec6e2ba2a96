package semantics

import (
	"fmt"

	"repro/internal/apint"
	"repro/internal/ir"
	"repro/internal/smt"
)

// UnsupportedError reports an IR construct outside the encodable fragment.
// The fuzzer treats these the way the paper treats Alive2 errors: the
// function is dropped from the campaign (§III-A), never reported as a bug.
type UnsupportedError struct {
	Fn     string
	Reason string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("semantics: @%s unsupported: %s", e.Fn, e.Reason)
}

// DefaultMaxPaths bounds path enumeration per function.
const DefaultMaxPaths = 64

// Encoder translates functions into symbolic summaries against a shared
// Context. Encode the source and the target of a refinement query with the
// same Encoder (or at least the same Context) so inputs, initial memory,
// freeze choices, and call results are shared.
type Encoder struct {
	Ctx *Context
	// Mod resolves callee declarations for attribute lookup; may be nil.
	Mod *ir.Module
}

// state is one in-progress symbolic execution.
type state struct {
	cond    *smt.Term
	ub      *smt.Term
	env     map[ir.Value]Value
	mem     *Memory
	calls   []CallRecord
	escaped map[int]bool
}

func (s *state) clone() *state {
	n := &state{
		cond:    s.cond,
		ub:      s.ub,
		env:     make(map[ir.Value]Value, len(s.env)),
		mem:     s.mem.Clone(),
		calls:   append([]CallRecord(nil), s.calls...),
		escaped: make(map[int]bool, len(s.escaped)),
	}
	for k, v := range s.env {
		n.env[k] = v
	}
	for k, v := range s.escaped {
		n.escaped[k] = v
	}
	return n
}

// Encode produces the symbolic summary of f.
func (e *Encoder) Encode(f *ir.Function) (*Summary, error) {
	if f.IsDecl {
		return nil, &UnsupportedError{f.Name, "declaration has no body"}
	}
	if f.HasLoop() {
		return nil, &UnsupportedError{f.Name, "function has loops"}
	}
	b := e.Ctx.B

	sum := &Summary{Fn: f.Name}
	init := &state{
		cond:    b.Bool(true),
		ub:      b.Bool(false),
		env:     make(map[ir.Value]Value),
		mem:     NewMemory(e.Ctx),
		escaped: make(map[int]bool),
	}
	for i, p := range f.Params {
		v := e.Ctx.Input(i, p)
		init.env[p] = v
		sum.Params = append(sum.Params, v)
	}

	// Static alloca numbering (shared shape between source and target).
	allocaProv := make(map[*ir.Instr]int)
	next := 1
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		if in.Op == ir.OpAlloca {
			allocaProv[in] = next
			next++
		}
		return true
	})

	type work struct {
		st   *state
		blk  *ir.Block
		pred *ir.Block // for phi resolution; nil at entry
	}
	stack := []work{{init, f.Entry(), nil}}

	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(sum.Paths)+len(stack) >= DefaultMaxPaths {
			return nil, &UnsupportedError{f.Name, fmt.Sprintf("more than %d paths", DefaultMaxPaths)}
		}
		st := w.st

		// Resolve phis against the incoming edge first (all reads before
		// writes, since LLVM phi semantics are parallel).
		phis := w.blk.Phis()
		if len(phis) > 0 {
			vals := make([]Value, len(phis))
			for pi, phi := range phis {
				found := false
				for ai, pb := range phi.Preds {
					if pb == w.pred {
						v, err := e.operand(st, phi.Args[ai])
						if err != nil {
							return nil, err
						}
						vals[pi] = v
						found = true
						break
					}
				}
				if !found {
					return nil, &UnsupportedError{f.Name,
						fmt.Sprintf("phi %%%s missing incoming for %s", phi.Nm, w.pred.Nm)}
				}
			}
			for pi, phi := range phis {
				st.env[phi] = vals[pi]
			}
		}

		terminated := false
		for _, in := range w.blk.Instrs[len(phis):] {
			switch in.Op {
			case ir.OpRet:
				p := Path{Cond: st.cond, UB: st.ub, Calls: st.calls, FinalMem: st.mem}
				if len(in.Args) == 1 {
					v, err := e.operand(st, in.Args[0])
					if err != nil {
						return nil, err
					}
					p.Ret, p.HasRet = v, true
				}
				sum.Paths = append(sum.Paths, p)
				terminated = true
			case ir.OpUnreachable:
				sum.Paths = append(sum.Paths, Path{
					Cond: st.cond, UB: b.Bool(true), Unreachable: true,
					Calls: st.calls, FinalMem: st.mem,
				})
				terminated = true
			case ir.OpBr:
				stack = append(stack, work{st, in.Targets[0], w.blk})
				terminated = true
			case ir.OpCondBr:
				c, err := e.operand(st, in.Args[0])
				if err != nil {
					return nil, err
				}
				// Branching on poison is UB.
				st.ub = b.Or(st.ub, c.Poison)
				tSt := st.clone()
				tSt.cond = b.And(tSt.cond, c.Bits)
				fSt := st
				fSt.cond = b.And(fSt.cond, b.Not(c.Bits))
				stack = append(stack, work{tSt, in.Targets[0], w.blk})
				stack = append(stack, work{fSt, in.Targets[1], w.blk})
				terminated = true
			default:
				if err := e.step(st, in, allocaProv); err != nil {
					return nil, err
				}
			}
			if terminated {
				break
			}
		}
		if !terminated {
			return nil, &UnsupportedError{f.Name, "block without terminator"}
		}
	}
	return sum, nil
}

// operand resolves an IR operand to its symbolic value in st.
func (e *Encoder) operand(st *state, v ir.Value) (Value, error) {
	b := e.Ctx.B
	switch x := v.(type) {
	case *ir.Const:
		return Value{Bits: b.Const(x.Ty.Bits, x.Val), Poison: b.Bool(false), Prov: ProvNone}, nil
	case *ir.Poison:
		w := 1
		prov := ProvNone
		if iw, ok := ir.IsInt(x.Ty); ok {
			w = iw
		} else if ir.IsPtr(x.Ty) {
			w = PtrBits
			prov = ProvExternal
		}
		return Value{Bits: b.Const(w, 0), Poison: b.Bool(true), Prov: prov}, nil
	case *ir.NullPtr:
		return Value{Bits: b.Const(PtrBits, 0), Poison: b.Bool(false), Prov: ProvExternal}, nil
	default:
		if val, ok := st.env[v]; ok {
			return val, nil
		}
		return Value{}, fmt.Errorf("semantics: operand %s not in scope", ir.OperandString(v))
	}
}

// step executes one non-terminator, non-phi instruction.
func (e *Encoder) step(st *state, in *ir.Instr, allocaProv map[*ir.Instr]int) error {
	b := e.Ctx.B
	args := make([]Value, len(in.Args))
	for i, a := range in.Args {
		v, err := e.operand(st, a)
		if err != nil {
			return err
		}
		args[i] = v
	}

	switch {
	case in.Op.IsBinary():
		v, ub := e.binary(in, args[0], args[1])
		st.ub = b.Or(st.ub, ub)
		st.env[in] = v
		return nil

	case in.Op == ir.OpICmp:
		v, err := e.icmp(in, args[0], args[1])
		if err != nil {
			return err
		}
		st.env[in] = v
		return nil

	case in.Op == ir.OpSelect:
		c, x, y := args[0], args[1], args[2]
		prov := ProvNone
		if x.Prov != ProvNone || y.Prov != ProvNone {
			if x.Prov != y.Prov {
				return &UnsupportedError{e.fnName(in), "select over pointers of different provenance"}
			}
			prov = x.Prov
		}
		st.env[in] = Value{
			Bits:   b.Ite(c.Bits, x.Bits, y.Bits),
			Poison: b.Or(c.Poison, b.Ite(c.Bits, x.Poison, y.Poison)),
			Prov:   prov,
		}
		return nil

	case in.Op == ir.OpZExt, in.Op == ir.OpSExt, in.Op == ir.OpTrunc:
		to, _ := ir.IsInt(in.Ty)
		x := args[0]
		var bits *smt.Term
		switch in.Op {
		case ir.OpZExt:
			bits = b.ZExt(x.Bits, to)
		case ir.OpSExt:
			bits = b.SExt(x.Bits, to)
		default:
			bits = b.Trunc(x.Bits, to)
		}
		st.env[in] = Value{Bits: bits, Poison: x.Poison, Prov: ProvNone}
		return nil

	case in.Op == ir.OpFreeze:
		x := args[0]
		w := x.Bits.W
		fv := e.Ctx.FreezeVar(in.Nm, w)
		st.env[in] = Value{
			Bits:   b.Ite(x.Poison, fv, x.Bits),
			Poison: b.Bool(false),
			Prov:   x.Prov,
		}
		return nil

	case in.Op == ir.OpAlloca:
		prov := allocaProv[in]
		st.mem.AddAlloca(prov)
		// The alloca's address within its own provenance: offset 0... but
		// GEPs move within the provenance, so use a fixed symbolic base
		// so distinct offsets stay distinguishable. A constant base of 0
		// suffices because addresses are only compared within the
		// provenance.
		st.env[in] = Value{Bits: b.Const(PtrBits, 0), Poison: b.Bool(false), Prov: prov}
		return nil

	case in.Op == ir.OpGEP:
		p, off := args[0], args[1]
		if p.Prov == ProvNone {
			return &UnsupportedError{e.fnName(in), "gep on non-pointer"}
		}
		st.env[in] = Value{
			Bits:   b.Add(p.Bits, b.SExt(off.Bits, PtrBits)),
			Poison: b.Or(p.Poison, off.Poison),
			Prov:   p.Prov,
		}
		return nil

	case in.Op == ir.OpLoad:
		w, ok := ir.IsInt(in.Ty)
		if !ok {
			return &UnsupportedError{e.fnName(in), "load of non-integer type " + in.Ty.String()}
		}
		p := args[0]
		st.ub = b.Or(st.ub, e.accessUB(p))
		st.env[in] = st.mem.loadValue(p.Prov, p.Bits, w)
		return nil

	case in.Op == ir.OpStore:
		v, p := args[0], args[1]
		w, ok := ir.IsInt(in.Args[0].Type())
		if !ok {
			return &UnsupportedError{e.fnName(in), "store of non-integer type"}
		}
		st.ub = b.Or(st.ub, e.accessUB(p))
		st.mem.storeValue(p.Prov, p.Bits, v, w)
		return nil

	case in.Op == ir.OpCall:
		return e.call(st, in, args)
	}
	return &UnsupportedError{e.fnName(in), "unhandled opcode " + in.Op.String()}
}

func (e *Encoder) fnName(in *ir.Instr) string {
	if in.Parent() != nil && in.Parent().Parent() != nil {
		return in.Parent().Parent().Name
	}
	return "?"
}

// accessUB is the UB condition for dereferencing p: poison address, or a
// null (address-zero) external pointer.
func (e *Encoder) accessUB(p Value) *smt.Term {
	b := e.Ctx.B
	ub := p.Poison
	if p.Prov == ProvExternal {
		ub = b.Or(ub, b.Eq(p.Bits, b.Const(PtrBits, 0)))
	}
	if p.Prov == ProvNone {
		return b.Bool(true) // dereferencing a non-pointer is malformed IR
	}
	return ub
}

// icmp encodes the ten predicates, including the pointer cases the model
// supports (same-provenance comparisons and comparisons against null).
func (e *Encoder) icmp(in *ir.Instr, x, y Value) (Value, error) {
	b := e.Ctx.B
	poison := b.Or(x.Poison, y.Poison)
	if x.Prov != ProvNone || y.Prov != ProvNone {
		// Pointer comparison.
		if x.Prov != y.Prov {
			// Alloca vs external (incl. null): allocas are distinct live
			// objects, so eq is false / ne is true; ordered comparisons
			// between different objects are not supported.
			switch in.Pred {
			case ir.EQ:
				return Value{Bits: b.Bool(false), Poison: poison, Prov: ProvNone}, nil
			case ir.NE:
				return Value{Bits: b.Bool(true), Poison: poison, Prov: ProvNone}, nil
			default:
				return Value{}, &UnsupportedError{e.fnName(in), "ordered icmp across provenances"}
			}
		}
	}
	var bits *smt.Term
	w := x.Bits.W
	switch in.Pred {
	case ir.EQ:
		bits = b.Eq(x.Bits, y.Bits)
	case ir.NE:
		bits = b.Ne(x.Bits, y.Bits)
	case ir.ULT:
		bits = b.Ult(x.Bits, y.Bits)
	case ir.ULE:
		bits = b.Ule(x.Bits, y.Bits)
	case ir.UGT:
		bits = b.Ugt(x.Bits, y.Bits)
	case ir.UGE:
		bits = b.Not(b.Ult(x.Bits, y.Bits))
	case ir.SLT:
		bits = b.Slt(x.Bits, y.Bits)
	case ir.SLE:
		bits = b.Sle(x.Bits, y.Bits)
	case ir.SGT:
		bits = b.Sgt(x.Bits, y.Bits)
	case ir.SGE:
		bits = b.Not(b.Slt(x.Bits, y.Bits))
	default:
		return Value{}, fmt.Errorf("semantics: invalid icmp predicate")
	}
	_ = w
	return Value{Bits: bits, Poison: poison, Prov: ProvNone}, nil
}

// binary encodes a binary arithmetic instruction, returning the value and
// any immediate-UB condition (division only).
func (e *Encoder) binary(in *ir.Instr, x, y Value) (Value, *smt.Term) {
	b := e.Ctx.B
	w := x.Bits.W
	poison := b.Or(x.Poison, y.Poison)
	ub := b.Bool(false)
	var bits *smt.Term

	switch in.Op {
	case ir.OpAdd:
		bits = b.Add(x.Bits, y.Bits)
		if in.Nuw {
			poison = b.Or(poison, b.Ult(bits, x.Bits)) // carry out
		}
		if in.Nsw {
			poison = b.Or(poison, signedAddOverflow(b, x.Bits, y.Bits, bits))
		}
	case ir.OpSub:
		bits = b.Sub(x.Bits, y.Bits)
		if in.Nuw {
			poison = b.Or(poison, b.Ult(x.Bits, y.Bits)) // borrow
		}
		if in.Nsw {
			poison = b.Or(poison, signedSubOverflow(b, x.Bits, y.Bits, bits))
		}
	case ir.OpMul:
		bits = b.Mul(x.Bits, y.Bits)
		if in.Nuw {
			poison = b.Or(poison, unsignedMulOverflow(b, x.Bits, y.Bits, w))
		}
		if in.Nsw {
			poison = b.Or(poison, signedMulOverflow(b, x.Bits, y.Bits, bits, w))
		}
	case ir.OpUDiv, ir.OpURem, ir.OpSDiv, ir.OpSRem:
		// Division by zero or by poison is immediate UB; poison dividends
		// yield poison results.
		ub = b.Or(y.Poison, b.Eq(y.Bits, b.Const(w, 0)))
		poison = x.Poison
		switch in.Op {
		case ir.OpUDiv:
			bits = b.UDiv(x.Bits, y.Bits)
			if in.Exact {
				poison = b.Or(poison, b.Ne(b.URem(x.Bits, y.Bits), b.Const(w, 0)))
			}
		case ir.OpURem:
			bits = b.URem(x.Bits, y.Bits)
		case ir.OpSDiv:
			bits = b.SDiv(x.Bits, y.Bits)
			// INT_MIN / -1 overflows: immediate UB per LLVM.
			ub = b.Or(ub, b.And(
				b.Eq(x.Bits, b.Const(w, minSignedBits(w))),
				b.Eq(y.Bits, b.Const(w, apint.Mask(w)))))
			if in.Exact {
				poison = b.Or(poison, b.Ne(b.SRem(x.Bits, y.Bits), b.Const(w, 0)))
			}
		default:
			bits = b.SRem(x.Bits, y.Bits)
			ub = b.Or(ub, b.And(
				b.Eq(x.Bits, b.Const(w, minSignedBits(w))),
				b.Eq(y.Bits, b.Const(w, apint.Mask(w)))))
		}
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		amtOK := b.Ult(y.Bits, b.Const(w, uint64(w)))
		poison = b.Or(poison, b.Not(amtOK))
		switch in.Op {
		case ir.OpShl:
			bits = b.Shl(x.Bits, y.Bits)
			if in.Nuw {
				poison = b.Or(poison, b.Ne(b.LShr(bits, y.Bits), x.Bits))
			}
			if in.Nsw {
				poison = b.Or(poison, b.Ne(b.AShr(bits, y.Bits), x.Bits))
			}
		case ir.OpLShr:
			bits = b.LShr(x.Bits, y.Bits)
			if in.Exact {
				poison = b.Or(poison, lostBits(b, x.Bits, y.Bits, w))
			}
		default:
			bits = b.AShr(x.Bits, y.Bits)
			if in.Exact {
				poison = b.Or(poison, lostBits(b, x.Bits, y.Bits, w))
			}
		}
	case ir.OpAnd:
		bits = b.And(x.Bits, y.Bits)
	case ir.OpOr:
		bits = b.Or(x.Bits, y.Bits)
	case ir.OpXor:
		bits = b.Xor(x.Bits, y.Bits)
	default:
		panic("semantics: binary on " + in.Op.String())
	}
	return Value{Bits: bits, Poison: poison, Prov: ProvNone}, ub
}

func minSignedBits(w int) uint64 { return 1 << uint(w-1) }

// signedAddOverflow: same-sign operands whose sum has the opposite sign.
func signedAddOverflow(b *smt.Builder, x, y, sum *smt.Term) *smt.Term {
	w := x.W
	sx := b.Extract(x, w-1, w-1)
	sy := b.Extract(y, w-1, w-1)
	ss := b.Extract(sum, w-1, w-1)
	return b.And(b.Not(b.Xor(sx, sy)), b.Xor(ss, sx))
}

// signedSubOverflow: operands of differing sign whose difference has the
// sign of the subtrahend.
func signedSubOverflow(b *smt.Builder, x, y, diff *smt.Term) *smt.Term {
	w := x.W
	sx := b.Extract(x, w-1, w-1)
	sy := b.Extract(y, w-1, w-1)
	sd := b.Extract(diff, w-1, w-1)
	return b.And(b.Xor(sx, sy), b.Xor(sd, sx))
}

// unsignedMulOverflow: x*y exceeds 2^w - 1, detected without widening via
// y != 0 ∧ x > (2^w-1)/y.
func unsignedMulOverflow(b *smt.Builder, x, y *smt.Term, w int) *smt.Term {
	ones := b.Const(w, apint.Mask(w))
	return b.And(
		b.Ne(y, b.Const(w, 0)),
		b.Ugt(x, b.UDiv(ones, y)))
}

// signedMulOverflow uses the divide-back check plus the two INT_MIN×-1
// corner cases.
func signedMulOverflow(b *smt.Builder, x, y, prod *smt.Term, w int) *smt.Term {
	zero := b.Const(w, 0)
	minS := b.Const(w, minSignedBits(w))
	negOne := b.Const(w, apint.Mask(w))
	corner := b.Or(
		b.And(b.Eq(x, negOne), b.Eq(y, minS)),
		b.And(b.Eq(y, negOne), b.Eq(x, minS)))
	divBack := b.And(b.Ne(x, zero), b.Ne(b.SDiv(prod, x), y))
	return b.Or(corner, divBack)
}

// lostBits reports whether right-shifting x by amt discards set bits
// (x & ~(ones << amt) != 0), the exact-flag violation.
func lostBits(b *smt.Builder, x, amt *smt.Term, w int) *smt.Term {
	ones := b.Const(w, apint.Mask(w))
	mask := b.Not(b.Shl(ones, amt))
	return b.Ne(b.And(x, mask), b.Const(w, 0))
}
