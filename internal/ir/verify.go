package ir

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// VerifyError describes a structural or SSA invariant violation found by
// Verify. The fuzzer treats a mutant that fails verification as a bug in
// the mutation engine itself — the paper's headline validity claim is that
// structure-aware mutation produces valid IR 100% of the time (§II), and
// this checker is what enforces it in tests.
type VerifyError struct {
	Func string
	Msg  string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("ir: verify @%s: %s", e.Func, e.Msg)
}

// Verify checks every function definition in the module.
func (m *Module) Verify() error {
	var errs []error
	for _, f := range m.Funcs {
		if err := f.Verify(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Verify checks the function's structural and SSA invariants:
//
//   - every block ends in exactly one terminator and contains no interior
//     terminators;
//   - phis appear only at block heads and cover each predecessor exactly
//     once;
//   - operand and result types are consistent per opcode;
//   - every value use is dominated by its definition;
//   - names of value-producing instructions are unique and nonempty.
func (f *Function) Verify() error {
	if f.IsDecl {
		return nil
	}
	fail := func(format string, args ...any) error {
		return &VerifyError{Func: f.Name, Msg: fmt.Sprintf(format, args...)}
	}
	if len(f.Blocks) == 0 {
		return fail("definition has no blocks")
	}

	// Name uniqueness across params and instructions.
	names := make(map[string]bool)
	for _, p := range f.Params {
		if p.Nm == "" {
			return fail("unnamed parameter")
		}
		if names[p.Nm] {
			return fail("duplicate name %%%s", p.Nm)
		}
		names[p.Nm] = true
	}

	blockSet := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		blockSet[b] = true
	}

	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fail("block %s is empty", b.Nm)
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return fail("block %s does not end in a terminator", b.Nm)
				}
				return fail("block %s has interior terminator %s", b.Nm, describe(in))
			}
			if in.Op == OpPhi && i > 0 && b.Instrs[i-1].Op != OpPhi {
				return fail("phi %%%s not at head of block %s", in.Nm, b.Nm)
			}
			if !IsVoid(in.Ty) {
				if in.Nm == "" {
					return fail("value-producing %s has no name", in.Op)
				}
				if names[in.Nm] {
					return fail("duplicate name %%%s", in.Nm)
				}
				names[in.Nm] = true
			}
			for _, t := range in.Targets {
				if !blockSet[t] {
					return fail("branch in %s targets foreign block %s", b.Nm, t.Nm)
				}
			}
			if err := checkInstrTypes(in); err != nil {
				return fail("%s: %v", describe(in), err)
			}
		}
	}

	// Phi incoming edges must match predecessors exactly.
	preds := predecessors(f)
	for _, b := range f.Blocks {
		for _, phi := range b.Phis() {
			if len(phi.Args) != len(phi.Preds) {
				return fail("phi %%%s has mismatched args/preds", phi.Nm)
			}
			seen := make(map[*Block]bool)
			for _, p := range phi.Preds {
				if seen[p] {
					return fail("phi %%%s lists predecessor %s twice", phi.Nm, p.Nm)
				}
				seen[p] = true
			}
			for _, p := range preds[b] {
				if !seen[p] {
					return fail("phi %%%s in %s missing entry for predecessor %s", phi.Nm, b.Nm, p.Nm)
				}
				delete(seen, p)
			}
			for p := range seen {
				return fail("phi %%%s in %s has entry for non-predecessor %s", phi.Nm, b.Nm, p.Nm)
			}
		}
	}

	return f.verifyDominance()
}

// describe names an instruction in an error message without printing it:
// a malformed instruction (a decoded one with too few operands, say) may
// lack what String expects.
func describe(in *Instr) string {
	if in.Nm == "" {
		return in.Op.String()
	}
	return fmt.Sprintf("%%%s = %s", in.Nm, in.Op)
}

// checkInstrTypes validates per-opcode operand/result typing.
func checkInstrTypes(in *Instr) error {
	intOp := func(v Value) (int, error) {
		w, ok := IsInt(v.Type())
		if !ok {
			return 0, fmt.Errorf("operand %s is not an integer", OperandString(v))
		}
		return w, nil
	}
	switch {
	case in.Op.IsBinary():
		if len(in.Args) != 2 {
			return fmt.Errorf("binary op with %d operands", len(in.Args))
		}
		w0, err := intOp(in.Args[0])
		if err != nil {
			return err
		}
		w1, err := intOp(in.Args[1])
		if err != nil {
			return err
		}
		wr, ok := IsInt(in.Ty)
		if !ok || w0 != w1 || w0 != wr {
			return fmt.Errorf("binary op width mismatch (%v, %v -> %v)",
				in.Args[0].Type(), in.Args[1].Type(), in.Ty)
		}
		if (in.Nuw || in.Nsw) && !in.Op.HasWrapFlags() {
			return fmt.Errorf("nuw/nsw on %s", in.Op)
		}
		if in.Exact && !in.Op.HasExactFlag() {
			return fmt.Errorf("exact on %s", in.Op)
		}
	case in.Op == OpICmp:
		if len(in.Args) != 2 {
			return fmt.Errorf("icmp with %d operands", len(in.Args))
		}
		if !TypesEqual(in.Args[0].Type(), in.Args[1].Type()) {
			return fmt.Errorf("icmp operand type mismatch")
		}
		if _, ok := IsInt(in.Args[0].Type()); !ok && !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("icmp on non-integer, non-pointer type")
		}
		if !IsBool(in.Ty) {
			return fmt.Errorf("icmp result is not i1")
		}
		if in.Pred == PredInvalid {
			return fmt.Errorf("icmp with invalid predicate")
		}
	case in.Op == OpSelect:
		if len(in.Args) != 3 {
			return fmt.Errorf("select with %d operands", len(in.Args))
		}
		if !IsBool(in.Args[0].Type()) {
			return fmt.Errorf("select condition is not i1")
		}
		if !TypesEqual(in.Args[1].Type(), in.Args[2].Type()) || !TypesEqual(in.Ty, in.Args[1].Type()) {
			return fmt.Errorf("select arm type mismatch")
		}
	case in.Op.IsCast():
		if len(in.Args) != 1 {
			return fmt.Errorf("cast with %d operands", len(in.Args))
		}
		ws, err := intOp(in.Args[0])
		if err != nil {
			return err
		}
		wd, ok := IsInt(in.Ty)
		if !ok {
			return fmt.Errorf("cast to non-integer")
		}
		switch in.Op {
		case OpTrunc:
			if wd >= ws {
				return fmt.Errorf("trunc i%d to i%d is not narrowing", ws, wd)
			}
		default:
			if wd <= ws {
				return fmt.Errorf("%s i%d to i%d is not widening", in.Op, ws, wd)
			}
		}
	case in.Op == OpFreeze:
		if len(in.Args) != 1 || !TypesEqual(in.Args[0].Type(), in.Ty) {
			return fmt.Errorf("freeze type mismatch")
		}
	case in.Op == OpAlloca:
		if !IsPtr(in.Ty) || in.AllocTy == nil || IsVoid(in.AllocTy) {
			return fmt.Errorf("malformed alloca")
		}
	case in.Op == OpLoad:
		if len(in.Args) != 1 || !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("load address is not a pointer")
		}
		if IsVoid(in.Ty) {
			return fmt.Errorf("load of void")
		}
	case in.Op == OpStore:
		if len(in.Args) != 2 || !IsPtr(in.Args[1].Type()) {
			return fmt.Errorf("store address is not a pointer")
		}
		if !IsVoid(in.Ty) {
			return fmt.Errorf("store produces a value")
		}
	case in.Op == OpGEP:
		if len(in.Args) != 2 || !IsPtr(in.Args[0].Type()) || !IsPtr(in.Ty) {
			return fmt.Errorf("malformed gep")
		}
		if _, ok := IsInt(in.Args[1].Type()); !ok {
			return fmt.Errorf("gep offset is not an integer")
		}
	case in.Op == OpCall:
		if len(in.Args) != len(in.Sig.Params) {
			return fmt.Errorf("call to @%s with %d args, signature wants %d",
				in.Callee, len(in.Args), len(in.Sig.Params))
		}
		for i, a := range in.Args {
			if !TypesEqual(a.Type(), in.Sig.Params[i]) {
				return fmt.Errorf("call to @%s arg %d type mismatch", in.Callee, i)
			}
		}
		if !TypesEqual(in.Ty, in.Sig.Ret) {
			return fmt.Errorf("call to @%s result type mismatch", in.Callee)
		}
	case in.Op == OpRet:
		// Return type checked against the function below (needs parent).
		if in.parent != nil && in.parent.parent != nil {
			f := in.parent.parent
			if IsVoid(f.RetTy) != (len(in.Args) == 0) {
				return fmt.Errorf("ret arity does not match return type %v", f.RetTy)
			}
			if len(in.Args) == 1 && !TypesEqual(in.Args[0].Type(), f.RetTy) {
				return fmt.Errorf("ret type %v does not match %v", in.Args[0].Type(), f.RetTy)
			}
		}
	case in.Op == OpBr:
		if len(in.Targets) != 1 {
			return fmt.Errorf("br with %d targets", len(in.Targets))
		}
	case in.Op == OpCondBr:
		if len(in.Targets) != 2 || len(in.Args) != 1 || !IsBool(in.Args[0].Type()) {
			return fmt.Errorf("malformed conditional br")
		}
	case in.Op == OpUnreachable, in.Op == OpPhi:
		// Phi edge consistency is checked at the function level.
	default:
		return fmt.Errorf("unknown opcode")
	}
	return nil
}

// predecessors computes the CFG predecessor map.
func predecessors(f *Function) map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// verifyDominance checks that every operand use is dominated by its
// definition. The dominator computation is the shared internal/graph
// implementation (the same one behind analysis.DomTree), so the verifier
// and the analyses can never disagree about dominance.
func (f *Function) verifyDominance() error {
	fail := func(format string, args ...any) error {
		return &VerifyError{Func: f.Name, Msg: fmt.Sprintf(format, args...)}
	}

	idx := make(map[*Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b] = i
	}
	dom := graph.Dominators(len(f.Blocks), idx[f.Entry()], func(i int) []int {
		ss := f.Blocks[i].Succs()
		out := make([]int, len(ss))
		for j, s := range ss {
			out[j] = idx[s]
		}
		return out
	})

	// Position of each defining instruction.
	defBlock := make(map[Value]*Block)
	defIndex := make(map[Value]int)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if !IsVoid(in.Ty) {
				defBlock[in] = b
				defIndex[in] = i
			}
		}
	}

	dominates := func(db *Block, di int, ub *Block, ui int) bool {
		if db == ub {
			return di < ui
		}
		return dom.Dominates(idx[db], idx[ub])
	}

	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			for ai, a := range in.Args {
				def, ok := a.(*Instr)
				if !ok {
					continue // constants and params dominate everything
				}
				db, defined := defBlock[def]
				if !defined {
					return fail("%s uses detached value %%%s", describe(in), def.Nm)
				}
				if in.Op == OpPhi {
					// A phi use must be dominated at the end of the
					// corresponding predecessor block.
					pred := in.Preds[ai]
					if !dominates(db, defIndex[def], pred, len(pred.Instrs)) {
						return fail("phi %%%s incoming %%%s from %s not dominated by its def",
							in.Nm, def.Nm, pred.Nm)
					}
					continue
				}
				if !dominates(db, defIndex[def], b, i) {
					return fail("use of %%%s in %s is not dominated by its definition",
						def.Nm, describe(in))
				}
			}
		}
	}
	return nil
}
