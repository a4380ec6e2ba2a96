package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/rng"
)

// This file is the one differential-execution path shared by everything
// that runs two functions on the same inputs and compares what they did:
// counterexample witness re-execution (tv.Witness) and the
// optimizer/analysis differential test harnesses. Keeping the runner, the
// refinement classifier, and the observational-equality predicate here
// means they cannot drift apart.

// Divergence kinds a differential run can exhibit. These are the
// normalized classes triage uses in bug signatures, so the strings must
// stay stable across runs.
const (
	DivergeTargetUB  = "tgt_ub"      // target UB where the source was defined
	DivergeRetPoison = "ret_poison"  // target returned poison, source a value
	DivergeRetValue  = "ret_value"   // both returned values, bits differ
	DivergeNone      = "unconfirmed" // no divergence visible to the interpreter
)

// DiffRun executes src (from srcMod) and tgt (from tgtMod) on the same
// argument vector under one shared deterministic call/memory oracle and
// returns both outcomes. A non-nil error means that side stepped outside
// the interpretable fragment (unmodelled environment), not that the
// function misbehaved.
func DiffRun(srcMod, tgtMod *ir.Module, src, tgt *ir.Function, args []Value, oracleSeed uint64) (sr, tr Result, errS, errT error) {
	oracle := &HashOracle{Seed: oracleSeed}
	si := &Interp{Mod: srcMod, Oracle: oracle}
	ti := &Interp{Mod: tgtMod, Oracle: oracle}
	sr, errS = si.Run(src, args)
	tr, errT = ti.Run(tgt, args)
	return sr, tr, errS, errT
}

// ClassifyRefinement judges one differential outcome under the
// refinement order (DESIGN.md §4): target UB is allowed only where the
// source has UB, target poison only where the source returns poison, and
// otherwise the bits must agree. It returns one of the Diverge*
// constants plus a stable human-readable detail line. DivergeNone covers
// every refining outcome — including source-UB and source-poison inputs,
// on which any target behaviour refines.
func ClassifyRefinement(sr, tr Result) (divergence, detail string) {
	switch {
	case sr.UB:
		// Source UB on this input: refinement permits anything.
		return DivergeNone, "source UB on witness input; not concretely replayable"
	case tr.UB:
		return DivergeTargetUB, "target UB where source is defined"
	case sr.HasRet && tr.HasRet && sr.Ret.Poison:
		return DivergeNone, "source returns poison; any target behaviour refines it"
	case sr.HasRet && tr.HasRet && tr.Ret.Poison:
		return DivergeRetPoison, fmt.Sprintf("ret %d vs poison", sr.Ret.Bits)
	case sr.HasRet && tr.HasRet && sr.Ret.Bits != tr.Ret.Bits:
		return DivergeRetValue, fmt.Sprintf("ret %d vs %d", sr.Ret.Bits, tr.Ret.Bits)
	default:
		return DivergeNone, "no divergence visible to the interpreter"
	}
}

// ObservablyEqual reports whether two execution results are
// indistinguishable to a caller: same UB-ness, same arity, and — when
// both return non-poison values — the same bits. Poison returns compare
// equal to each other regardless of bits.
func ObservablyEqual(a, b Result) bool {
	if a.UB != b.UB || a.HasRet != b.HasRet {
		return false
	}
	if a.UB || !a.HasRet {
		return true
	}
	if a.Ret.Poison != b.Ret.Poison {
		return false
	}
	return a.Ret.Poison || a.Ret.Bits == b.Ret.Bits
}

// InputVectors derives n deterministic argument vectors for f from the
// seed: vector 0 stresses the corner values (0, 1, all-ones, and the
// signed extremes, cycled across parameters), the rest are
// hash-distributed. Pointer arguments land 8-aligned inside the
// interpreter's synthetic arena. The result is a pure function of
// (signature, n, seed), so a differential test replays exactly.
func InputVectors(f *ir.Function, n int, seed uint64) [][]Value {
	r := rng.New(seed)
	vecs := make([][]Value, 0, n)
	for t := 0; t < n; t++ {
		args := make([]Value, len(f.Params))
		for i, p := range f.Params {
			if ir.IsPtr(p.Ty) {
				args[i] = Value{Bits: 0x1000 + r.Uint64n(1<<20)&^uint64(7)}
				continue
			}
			mask := ^uint64(0)
			if w, ok := ir.IsInt(p.Ty); ok && w < 64 {
				mask = 1<<uint(w) - 1
			}
			if t == 0 {
				corners := [...]uint64{0, 1, mask, mask >> 1, mask>>1 + 1}
				args[i] = Value{Bits: corners[i%len(corners)] & mask}
			} else {
				args[i] = Value{Bits: r.Uint64() & mask}
			}
		}
		vecs = append(vecs, args)
	}
	return vecs
}
