package tv

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"repro/internal/ir"
)

// Fingerprint computes a canonical structural hash of everything Verify
// reads for a (src, tgt) pair: both function bodies with values and
// blocks alpha-renamed to position numbers (so SSA value names, block
// labels, and parameter names do not matter), every flag, predicate,
// constant, alignment, and attribute that reaches the encoder, the
// signatures and attributes of all referenced callee declarations, and
// the Options fields that can change a verdict. Two pairs with equal
// fingerprints produce identical verification outcomes; two pairs that
// differ in any Verify-visible way hash differently (collision odds are
// those of SHA-256).
//
// Cost-attribution spans group solver effort by it (NeedFingerprint). It
// is not the verdict cache's key: the cache keys the encoded query, which
// also matches pairs whose differences fold away during encoding.
func Fingerprint(mod *ir.Module, src, tgt *ir.Function, opts Options) Key {
	w := &fpWriter{}
	w.str("alive-mutate-tvfp/1")

	// Options digest: every knob that can alter a Result. Incremental
	// and Static are included defensively — they are verdict-preserving
	// by design, but spans must never group formulas across modes.
	w.u64(uint64(opts.ConflictBudget))
	w.u64(uint64(opts.Portfolio))
	w.bits(opts.Incremental, opts.Static, opts.Concrete)

	w.fn(src)
	w.fn(tgt)

	w.callees(mod, src, tgt)

	return Key(sha256.Sum256(w.buf))
}

// callees serializes the declarations of every function called by fns:
// matchCalls compares callee names and the encoder reads declared
// signatures and attributes from the module.
func (w *fpWriter) callees(mod *ir.Module, fns ...*ir.Function) {
	callees := map[string]bool{}
	for _, f := range fns {
		for _, in := range f.Instrs() {
			if in.Op == ir.OpCall {
				callees[in.Callee] = true
			}
		}
	}
	names := make([]string, 0, len(callees))
	for n := range callees {
		names = append(names, n)
	}
	sort.Strings(names)
	w.u64(uint64(len(names)))
	for _, n := range names {
		w.str(n)
		decl := mod.FuncByName(n)
		if decl == nil {
			w.str("<absent>")
			continue
		}
		w.bits(decl.IsDecl)
		w.attrs(decl.Attrs)
		w.str(decl.RetTy.String())
		w.u64(uint64(len(decl.Params)))
		for _, p := range decl.Params {
			w.str(p.Ty.String())
			w.paramAttrs(p.Attrs)
		}
	}
}

// fpWriter serializes the canonical form. Every variable-length field is
// length-prefixed so distinct structures can never serialize identically.
type fpWriter struct {
	buf []byte
}

func (w *fpWriter) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *fpWriter) bits(bs ...bool) {
	var v uint64
	for i, b := range bs {
		if b {
			v |= 1 << uint(i)
		}
	}
	w.u64(v)
}

func (w *fpWriter) attrs(a ir.FuncAttrs) {
	w.bits(a.Nofree, a.Willreturn, a.Norecurse, a.Nounwind, a.Nosync,
		a.Readnone, a.Readonly)
}

func (w *fpWriter) paramAttrs(a ir.ParamAttrs) {
	w.bits(a.Nocapture, a.Nonnull, a.Noundef, a.Readonly, a.Writeonly)
	w.u64(a.Dereferenceable)
	w.u64(a.Align)
}

// fn serializes one function with alpha renaming: parameters become
// 0..n-1, instruction results are numbered in block-layout order after
// the parameters, and blocks are numbered by layout position. Names are
// never written.
func (w *fpWriter) fn(f *ir.Function) {
	w.str(f.RetTy.String())
	w.attrs(f.Attrs)
	w.u64(uint64(len(f.Params)))

	valueNum := make(map[ir.Value]uint64, len(f.Params)+f.NumInstrs())
	for i, p := range f.Params {
		w.str(p.Ty.String())
		w.paramAttrs(p.Attrs)
		valueNum[p] = uint64(i)
	}

	blockNum := make(map[*ir.Block]uint64, len(f.Blocks))
	next := uint64(len(f.Params))
	for bi, blk := range f.Blocks {
		blockNum[blk] = uint64(bi)
		for _, in := range blk.Instrs {
			valueNum[in] = next
			next++
		}
	}

	w.bits(f.IsDecl)
	w.u64(uint64(len(f.Blocks)))
	for _, blk := range f.Blocks {
		w.u64(uint64(len(blk.Instrs)))
		for _, in := range blk.Instrs {
			w.instr(in, valueNum, blockNum)
		}
	}
}

func (w *fpWriter) instr(in *ir.Instr, valueNum map[ir.Value]uint64, blockNum map[*ir.Block]uint64) {
	w.u64(uint64(in.Op))
	w.str(in.Ty.String())
	w.bits(in.Nuw, in.Nsw, in.Exact)
	w.u64(uint64(in.Pred))
	w.str(in.Callee)
	if in.Op == ir.OpCall {
		w.str(in.Sig.String())
	}
	if in.AllocTy != nil {
		w.str(in.AllocTy.String())
	} else {
		w.str("")
	}
	w.u64(in.Align)

	w.u64(uint64(len(in.Args)))
	for _, a := range in.Args {
		w.value(a, valueNum)
	}
	w.u64(uint64(len(in.Targets)))
	for _, t := range in.Targets {
		w.u64(blockNum[t])
	}
	w.u64(uint64(len(in.Preds)))
	for _, p := range in.Preds {
		w.u64(blockNum[p])
	}
}

func (w *fpWriter) value(v ir.Value, valueNum map[ir.Value]uint64) {
	switch x := v.(type) {
	case *ir.Const:
		w.u64(1)
		w.u64(uint64(x.Ty.Bits))
		w.u64(x.Val)
	case *ir.Poison:
		w.u64(2)
		w.str(x.Ty.String())
	case *ir.NullPtr:
		w.u64(3)
	default:
		// Params and instruction results share the alpha-rename space.
		w.u64(4)
		n, ok := valueNum[v]
		if !ok {
			// A reference to a value outside the function (malformed IR);
			// fingerprint it distinctly rather than panicking.
			n = ^uint64(0)
		}
		w.u64(n)
	}
}
