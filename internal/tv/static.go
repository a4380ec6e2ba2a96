package tv

import (
	"repro/internal/ir"
	"repro/internal/semantics"
	"repro/internal/smt"
)

// Static pre-verifier outcomes, as recorded in Result.StaticOutcome and
// counted by the campaign's tv.static.* counters.
const (
	// StaticProved: the static rung proved refinement and short-circuited
	// the SAT solve. SAT would have returned Valid.
	StaticProved = "proved"
	// StaticBailout: the static rung could not decide; SAT decides.
	StaticBailout = "bailout"
)

// staticProve runs the two static refinement rungs in cost order and
// returns the deciding rule plus the outcome class, StaticProved or
// StaticBailout. The rungs only ever short-circuit Valid (see
// Options.Static), and they run after encoding succeeded, so Unsupported
// classification is untouched by construction.
//
// Rungs:
//
//	fold        the violation query folded to false structurally
//	            (hash-consing + rewriting proved every obligation);
//	term-equal  source and target encodings are path-for-path the same
//	            symbolic values (smt.Equal across the summaries).
func staticProve(src, tgt *ir.Function,
	srcSum, tgtSum *semantics.Summary, query *smt.Term) (rule, outcome string) {
	if query.IsFalse() {
		return "fold", StaticProved
	}
	if summariesTermEqual(src, tgt, srcSum, tgtSum) {
		return "term-equal", StaticProved
	}
	return "", StaticBailout
}

// summariesTermEqual reports whether the two encodings denote the same
// behaviour path-for-path: identical path conditions, UB conditions,
// and return values as terms. Identical behaviour trivially refines.
// Memory and calls are excluded structurally: the comparison only
// applies when neither function writes memory or calls out, so the
// memory obligation compares the shared initial memory against itself.
func summariesTermEqual(src, tgt *ir.Function, a, b *semantics.Summary) bool {
	if hasMemWritesOrCalls(src) || hasMemWritesOrCalls(tgt) {
		return false
	}
	if len(a.Paths) != len(b.Paths) {
		return false
	}
	for i := range a.Paths {
		pa, pb := &a.Paths[i], &b.Paths[i]
		if pa.Unreachable != pb.Unreachable || pa.HasRet != pb.HasRet {
			return false
		}
		if !smt.Equal(pa.Cond, pb.Cond) || !smt.Equal(pa.UB, pb.UB) {
			return false
		}
		if pa.HasRet {
			if pa.Ret.Prov != pb.Ret.Prov ||
				!smt.ValuesEqual(pa.Ret.Bits, pa.Ret.Poison, pb.Ret.Bits, pb.Ret.Poison) {
				return false
			}
		}
	}
	return true
}

func hasMemWritesOrCalls(f *ir.Function) bool {
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpStore || in.Op == ir.OpCall {
				return true
			}
		}
	}
	return false
}
