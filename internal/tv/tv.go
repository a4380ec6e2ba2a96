// Package tv implements Alive2-style translation validation for the IR
// subset: it checks that an optimized (target) function refines the
// original (source) function for all possible input values — the oracle at
// the heart of the alive-mutate fuzzing loop (paper §III-D).
//
// Refinement, per DESIGN.md §4: for every input on which the source has no
// undefined behaviour, the target must have no undefined behaviour, must
// perform a compatible sequence of external calls, must leave equivalent
// caller-visible memory, and must return the source's value unless the
// source returned poison.
package tv

import (
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/semantics"
	"repro/internal/smt"
)

// Verdict classifies a verification outcome.
type Verdict int

const (
	// Valid: the target refines the source (UNSAT violation query).
	Valid Verdict = iota
	// Invalid: a counterexample input distinguishes target from source.
	Invalid
	// Unsupported: the functions fall outside the encodable fragment
	// (loops, unsupported types, cross-provenance comparisons, ...). Such
	// functions are dropped from fuzzing, exactly as the paper drops
	// Alive2-unsupported functions (§III-A).
	Unsupported
	// Unknown: the solver exhausted its conflict budget.
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	case Unsupported:
		return "unsupported"
	default:
		return "unknown"
	}
}

// Counterexample is a concrete input demonstrating a refinement failure.
type Counterexample struct {
	// Inputs maps parameter names to concrete values (canonical apint
	// form); Poison marks inputs the model made poison.
	Inputs map[string]uint64
	Poison map[string]bool
	// Model is the full satisfying assignment, for diagnostics.
	Model smt.Model
}

func (c *Counterexample) String() string {
	s := "counterexample:"
	for _, k := range c.sortedInputNames() {
		if c.Poison[k] {
			s += fmt.Sprintf(" %%%s=poison", k)
		} else {
			s += fmt.Sprintf(" %%%s=%d", k, c.Inputs[k])
		}
	}
	return s
}

// Result is the outcome of one refinement check.
type Result struct {
	Verdict Verdict
	Reason  string
	CEX     *Counterexample
	// Solver effort statistics (for the throughput experiment's
	// best/worst-case analysis).
	Conflicts    int64
	Propagations int64
	SATVars      int

	// CacheHit marks a solve-stage result replayed from the verdict
	// cache: Verdict and Reason are the stored ones, and the solve
	// stage's statistics (Conflicts, Propagations, SATVars) are zero.
	CacheHit bool
	// FP is the hex form of the solve stage's key (see solveKey),
	// populated when NeedFingerprint is set; empty for Unsupported
	// queries, which have no encoding. Cost-attribution spans use it to
	// group solver effort by formula, so they group exactly the queries
	// the verdict cache treats as one; it never influences the verdict.
	FP string
	// AssumptionQueries is always zero. The incremental per-class session
	// is gone; the name survives only because perfbench/trace reads it,
	// and a later change to the benchmark deletes it. Nothing else may
	// read it.
	AssumptionQueries int64

	// StaticOutcome is StaticProved when the query folded to false
	// during encoding and so was Valid before the solve stage, and empty
	// otherwise.
	StaticOutcome string

	// SrcEncProved is always false. The shared src encoding layer is
	// gone; the name survives only because perfbench/trace reads it, and
	// a later change to the benchmark deletes it. Nothing else may read
	// it.
	SrcEncProved bool

	// PortfolioRaced and PortfolioWinner are always zero. The fallback
	// solver leg is gone; the names survive only because perfbench/trace
	// reads them, and a later change to the benchmark deletes them.
	// Nothing else may read them.
	PortfolioRaced  bool
	PortfolioWinner int
}

// Options configures verification.
type Options struct {
	// ConflictBudget caps SAT conflicts (0 = unlimited). The solver checks
	// it only at restart boundaries (sat.Solver.Budget), so a solve may
	// overshoot it by up to one Luby round.
	ConflictBudget int64
	// Observe, when non-nil, receives every query's Result and wall time,
	// on the goroutine that called Verify. The fuzzing loop wires this to
	// per-verdict latency histograms; it is nil — and costs nothing —
	// otherwise. A loop running on several workers calls it concurrently.
	Observe func(r Result, d time.Duration)

	// Incremental is ignored. The incremental per-class session is gone;
	// the field survives only because perfbench/trace sets it, and a
	// later change to the benchmark deletes it. Nothing else may set it.
	Incremental bool
	// Static is ignored. The static rung is gone (a query that folds
	// during encoding is Valid under any Options); the field survives
	// only because perfbench/trace sets it, and a later change to the
	// benchmark deletes it. Nothing else may set it.
	Static bool
	// SrcEnc is ignored. The shared src encoding layer is gone; the
	// field survives only because perfbench/trace sets it, and a later
	// change to the benchmark deletes it. Nothing else may set it.
	SrcEnc *SrcEncodings
	// Concrete is ignored. The concrete-execution rung is gone; the
	// field survives only because perfbench/trace sets it, and a later
	// change to the benchmark deletes it. Nothing else may set it.
	Concrete bool
	// Portfolio is ignored. The fallback solver leg is gone; the field
	// survives only because perfbench/trace sets it, and a later change
	// to the benchmark deletes it. Nothing else may set it.
	Portfolio int
	// Cache, when non-nil, memoizes the solve stage's results keyed by a
	// digest of the encoded query (see cache.go): the lookup comes after
	// the fold check, and a hit replays the stored Valid or budget
	// Unknown exactly. Invalid results are never cached, so
	// counterexamples are always freshly solved. Not safe for concurrent
	// use; the campaign creates one per unit.
	Cache *Cache
	// NeedFingerprint populates Result.FP. Verdict-neutral: it is
	// excluded from the solve key and never changes solving.
	NeedFingerprint bool
}

// SrcEncodings is empty. The shared src encoding layer is gone; the type
// and NewSrcEncodings survive only because perfbench/trace names them,
// and a later change to the benchmark deletes them. Nothing else may use
// them.
type SrcEncodings struct{}

// NewSrcEncodings returns an empty SrcEncodings (see its comment).
func NewSrcEncodings() *SrcEncodings { return &SrcEncodings{} }

// Verify checks that tgt refines src. The module provides callee
// declarations for attribute lookup; src and tgt must have identical
// signatures.
func Verify(mod *ir.Module, src, tgt *ir.Function, opts Options) Result {
	if opts.Observe == nil {
		return verifySolve(mod, src, tgt, opts)
	}
	start := time.Now() // vet:determinism — Observe latency hook, telemetry only
	r := verifySolve(mod, src, tgt, opts)
	opts.Observe(r, time.Since(start))
	return r
}

func verifySolve(mod *ir.Module, src, tgt *ir.Function, opts Options) Result {
	if err := checkSignatures(src, tgt); err != nil {
		return Result{Verdict: Unsupported, Reason: err.Error()}
	}

	query, reason := encode(mod, src, tgt)
	if query == nil {
		return Result{Verdict: Unsupported, Reason: reason}
	}
	// A query that folded to false during encoding (hash-consing and
	// rewriting proved every obligation) is Valid before the solve
	// stage: no key, no cache lookup, no solver.
	if query.IsFalse() {
		r := Result{Verdict: Valid, StaticOutcome: StaticProved}
		if opts.NeedFingerprint {
			r.FP = solveKey(query, opts).String()
		}
		return r
	}

	// Verdict cache: a query already solved in this unit replays its
	// result (see cache.go). The key also names the query in spans.
	var key Key
	if opts.Cache != nil || opts.NeedFingerprint {
		key = solveKey(query, opts)
	}
	r, hit := Result{}, false
	if opts.Cache != nil {
		r, hit = opts.Cache.lookup(key)
	}
	if !hit {
		r = solve(src, query, opts)
		if opts.Cache != nil {
			opts.Cache.store(key, r)
		}
	}
	if opts.NeedFingerprint {
		r.FP = key.String()
	}
	return r
}

// solve is the solve stage: one monolithic solve of the query, on the
// calling goroutine.
func solve(src *ir.Function, query *smt.Term, opts Options) Result {
	c := smt.Checker{ConflictBudget: opts.ConflictBudget}
	res, model := c.Check(query)
	out := Result{Conflicts: c.LastConflicts, Propagations: c.LastPropagations, SATVars: c.LastVars}
	switch res {
	case smt.Unsat:
		out.Verdict = Valid
	case smt.Sat:
		out.Verdict = Invalid
		out.Reason = "target does not refine source"
		out.CEX = extractCEX(src, model)
	default:
		out.Verdict = Unknown
		out.Reason = "solver budget exhausted"
	}
	return out
}

// StaticOutcome values (Result.StaticOutcome).
const (
	// StaticProved: the query folded to false during encoding and was
	// Valid before the solve stage.
	StaticProved = "proved"
	// StaticBailout is never set. The static rung is gone; the name
	// survives only because perfbench/trace names it, and a later change
	// to the benchmark deletes it. Nothing else may use it.
	StaticBailout = "bailout"
)

// ReachedSolveStage reports whether the query got past encoding and the
// fold check to the solve stage, where the verdict cache's lookup comes
// first. Only encoding returns Unsupported.
func (r Result) ReachedSolveStage() bool {
	return r.Verdict != Unsupported && r.StaticOutcome != StaticProved
}

// encode builds the pair's violation query: satisfiable exactly when tgt
// fails to refine src. A nil query comes with the Unsupported reason.
func encode(mod *ir.Module, src, tgt *ir.Function) (*smt.Term, string) {
	b := smt.NewBuilder()
	ctx := semantics.NewContext(b)
	enc := &semantics.Encoder{Ctx: ctx, Mod: mod}

	srcSum, err := enc.Encode(src)
	if err != nil {
		return nil, err.Error()
	}
	tgtSum, err := enc.Encode(tgt)
	if err != nil {
		return nil, err.Error()
	}
	viol, reason, supported := buildViolation(ctx, src, srcSum, tgtSum)
	if !supported {
		return nil, reason
	}
	return b.And(ctx.Axioms(), viol), ""
}

func checkSignatures(src, tgt *ir.Function) error {
	if !ir.TypesEqual(src.RetTy, tgt.RetTy) {
		return fmt.Errorf("return types differ (%v vs %v)", src.RetTy, tgt.RetTy)
	}
	if len(src.Params) != len(tgt.Params) {
		return fmt.Errorf("parameter counts differ (%d vs %d)", len(src.Params), len(tgt.Params))
	}
	for i := range src.Params {
		if !ir.TypesEqual(src.Params[i].Ty, tgt.Params[i].Ty) {
			return fmt.Errorf("parameter %d types differ", i)
		}
	}
	return nil
}

// buildViolation constructs the bv1 term that is satisfiable exactly when
// refinement fails, as a disjunction over all (source path, target path)
// pairs.
func buildViolation(ctx *semantics.Context, src *ir.Function,
	srcSum, tgtSum *semantics.Summary) (viol *smt.Term, reason string, supported bool) {

	b := ctx.B
	viol = b.Bool(false)
	voidRet := ir.IsVoid(src.RetTy)

	for _, sp := range srcSum.Paths {
		for _, tp := range tgtSum.Paths {
			pairCond := b.And(sp.Cond, tp.Cond)
			if pairCond.IsFalse() {
				continue
			}
			guard := b.And(pairCond, b.Not(sp.UB))
			if guard.IsFalse() {
				continue
			}

			comp, pairReason, ok := buildPairComponents(ctx, voidRet, sp, tp)
			if !ok {
				return nil, pairReason, false
			}
			if comp.structural {
				// A structurally illegal call-sequence change is itself
				// the violation: if these paths co-occur on a defined
				// input, the target performed calls the source did not
				// permit.
				viol = b.Or(viol, guard)
				continue
			}
			// Violation: an obligation failed outright, or all held
			// (pinning the shared call results) and the core refinement
			// still failed.
			pairViol := b.Or(b.Not(comp.oblig), b.And(comp.oblig, b.And(comp.facts, comp.core)))
			viol = b.Or(viol, b.And(guard, pairViol))
		}
	}
	return viol, "", true
}

// pairComponents carries the pieces of one path pair's violation
// condition. structural marks a call-sequence mismatch whose violation
// is the whole guard; otherwise the pair violates refinement when an
// obligation fails, or when oblig and facts hold and core (target UB, a
// return value that fails to refine, or final memory that fails to
// refine) does too.
type pairComponents struct {
	structural bool
	oblig      *smt.Term
	facts      *smt.Term
	core       *smt.Term
}

// buildPairComponents builds the violation components for one path pair.
func buildPairComponents(ctx *semantics.Context, voidRet bool,
	sp, tp semantics.Path) (pairComponents, string, bool) {

	b := ctx.B

	matches, mismatch := matchCalls(sp.Calls, tp.Calls)
	if mismatch != "" {
		return pairComponents{structural: true}, "", true
	}

	oblig := b.Bool(true)
	facts := b.Bool(true)
	for _, m := range matches {
		sc, tc := m.src, m.tgt
		// Arguments: the target must pass the source's argument values
		// (unless the source argument was poison, which permits anything).
		for i := range sc.Args {
			sa, ta := sc.Args[i], tc.Args[i]
			if sa.Prov != ta.Prov {
				return pairComponents{}, "call argument provenance mismatch", false
			}
			argOK := b.Or(sa.Poison,
				b.And(b.Not(ta.Poison), b.Eq(sa.Bits, ta.Bits)))
			oblig = b.And(oblig, argOK)
		}
		// Memory the callee can observe must match (unless the callee
		// reads nothing). One adversarially-chosen probe address per
		// matched call checks all of external memory.
		if sc.MemAtCall != nil && tc.MemAtCall != nil {
			probe := ctx.ProbeVar(fmt.Sprintf("call%d", sc.Index))
			oblig = b.And(oblig, byteRefines(b,
				sc.MemAtCall.GetByte(semantics.ProvExternal, probe),
				tc.MemAtCall.GetByte(semantics.ProvExternal, probe)))
		}
		// Matched calls observe the same callee: equal results. (When the
		// shared return variables coincide these fold to true.)
		if sc.HasRet && tc.HasRet {
			facts = b.And(facts, b.Eq(sc.Ret.Bits, tc.Ret.Bits))
			facts = b.And(facts, b.Eq(sc.Ret.Poison, tc.Ret.Poison))
		}
	}

	core := tp.UB
	if !voidRet && sp.HasRet && tp.HasRet {
		sr, tr := sp.Ret, tp.Ret
		if sr.Prov > semantics.ProvExternal || tr.Prov > semantics.ProvExternal {
			return pairComponents{}, "returning a stack-local pointer", false
		}
		retViol := b.And(b.Not(sr.Poison),
			b.Or(tr.Poison, b.Ne(sr.Bits, tr.Bits)))
		core = b.Or(core, retViol)
	}

	// Final caller-visible memory must refine the source's.
	probe := ctx.ProbeVar("final")
	memOK := byteRefines(b,
		sp.FinalMem.GetByte(semantics.ProvExternal, probe),
		tp.FinalMem.GetByte(semantics.ProvExternal, probe))
	core = b.Or(core, b.Not(memOK))

	return pairComponents{oblig: oblig, facts: facts, core: core}, "", true
}

// byteRefines: target byte refines source byte (source poison allows
// anything; otherwise the target must be non-poison and bit-equal).
func byteRefines(b *smt.Builder, sb, tb semantics.Byte) *smt.Term {
	return b.Or(sb.Poison, b.And(b.Not(tb.Poison), b.Eq(sb.Bits, tb.Bits)))
}

type callMatch struct {
	src, tgt semantics.CallRecord
}

// matchCalls pairs target calls with source calls in order. Source calls
// may be skipped only if they were legally removable (readnone/readonly,
// willreturn, nounwind callees — checked by the caller via attributes
// embedded at encoding time through MayWrite/MemAtCall). Extra target
// calls are a mismatch.
func matchCalls(src, tgt []semantics.CallRecord) ([]callMatch, string) {
	var out []callMatch
	si := 0
	for _, tc := range tgt {
		found := false
		for si < len(src) {
			if src[si].Callee == tc.Callee && len(src[si].Args) == len(tc.Args) {
				out = append(out, callMatch{src[si], tc})
				si++
				found = true
				break
			}
			if !droppable(src[si]) {
				return nil, fmt.Sprintf("target dropped non-removable call to @%s", src[si].Callee)
			}
			si++
		}
		if !found {
			return nil, fmt.Sprintf("target added a call to @%s", tc.Callee)
		}
	}
	for ; si < len(src); si++ {
		if !droppable(src[si]) {
			return nil, fmt.Sprintf("target dropped non-removable call to @%s", src[si].Callee)
		}
	}
	return out, ""
}

// droppable: a call the optimizer may delete without trace, as computed by
// the encoder from callee attributes (readnone/readonly + willreturn +
// nounwind).
func droppable(c semantics.CallRecord) bool { return c.Droppable }

// extractCEX pulls the parameter assignment out of a violation model.
func extractCEX(src *ir.Function, m smt.Model) *Counterexample {
	cex := &Counterexample{
		Inputs: make(map[string]uint64),
		Poison: make(map[string]bool),
		Model:  m,
	}
	for i, p := range src.Params {
		base := fmt.Sprintf("in!%d!%s", i, p.Nm)
		if v, ok := m[base]; ok {
			cex.Inputs[p.Nm] = v
		}
		if pv, ok := m[base+"!poison"]; ok && pv == 1 {
			cex.Poison[p.Nm] = true
		}
	}
	return cex
}
