package tv

import (
	"repro/internal/interp"
	"repro/internal/ir"
)

// The concrete-execution rung: after the static pre-verifier bails or
// advisorily refutes, run source and target on a small deterministic
// input vector through the interpreter as a differential pre-screen.
// A mutant that visibly diverges on a concrete input is certainly not
// refining — its violation query is satisfiable — so every Valid-only
// accelerated attempt (the incremental per-class session, the
// portfolio's Unsat-hunting alternates) is guaranteed wasted work, and
// the query is routed straight to the canonical monolithic solve.
//
// The rung is strictly advisory: it never decides a verdict and never
// seeds the SAT search (phase seeding would perturb the canonical model
// and hence the witness), so result tables, witnesses, and triage trees
// are byte-identical with the rung off. Its one lever is routing, which
// only skips attempts that are verdict-neutral by construction.

// Concrete-rung outcomes recorded on Result.ConcreteOutcome.
const (
	// ConcreteAgreed: every screened input vector executed on both sides
	// and refined. Says nothing definitive (the divergence may live on
	// an input the screen did not draw); the cascade proceeds unchanged.
	ConcreteAgreed = "agreed"
	// ConcreteDiverged: some input vector exhibited a genuine refinement
	// violation (target UB, poison, or wrong bits where the source was
	// defined). The query is satisfiable; Valid-only attempts are
	// skipped.
	ConcreteDiverged = "diverged"
	// ConcreteBailout: the interpreter could not model some execution
	// (environment beyond the deterministic oracle) and no screened
	// vector diverged; the cascade proceeds unchanged.
	ConcreteBailout = "bailout"
)

// concreteVectors is how many input vectors the rung screens per query:
// the corner vector plus three hash-distributed ones. The screen costs
// microseconds against solver milliseconds, but divergence is almost
// always visible on the corners (tuned in docs/PERFORMANCE.md).
const concreteVectors = 4

// concreteInputSeed derives the screening vectors; fixed so screening
// outcomes are a pure function of the (src, tgt) pair.
const concreteInputSeed = 0x5c3ee9

// concreteOracleSeed pins the call/memory oracle, independent of the
// witness-replay oracle so the two layers can evolve separately.
const concreteOracleSeed = 0xd1ff

// concreteScreen differentially executes src and tgt (both resident in
// mod) on the rung's deterministic input vectors and classifies the
// query. Purely advisory; see the file comment.
func concreteScreen(mod *ir.Module, src, tgt *ir.Function) string {
	bailout := false
	for _, args := range interp.InputVectors(src, concreteVectors, concreteInputSeed) {
		sr, tr, errS, errT := interp.DiffRun(mod, mod, src, tgt, args, concreteOracleSeed)
		if errS != nil || errT != nil {
			bailout = true
			continue
		}
		if div, _ := interp.ClassifyRefinement(sr, tr); div != interp.DivergeNone {
			return ConcreteDiverged
		}
	}
	if bailout {
		return ConcreteBailout
	}
	return ConcreteAgreed
}
