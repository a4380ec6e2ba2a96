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
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/sat"
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
	// stage's statistics (Conflicts, Propagations, SATVars,
	// AssumptionQueries, PortfolioRaced) are zero. The static fields
	// are this query's own, because that rung ran.
	CacheHit bool
	// FP is the hex form of the solve stage's key (see solveKey),
	// populated when NeedFingerprint is set; empty for Unsupported
	// queries, which have no encoding. Cost-attribution spans use it to
	// group solver effort by formula, so they group exactly the queries
	// the verdict cache treats as one; it never influences the verdict.
	FP string
	// AssumptionQueries counts the incremental per-class queries issued
	// on the shared solver session (0 on the monolithic path).
	AssumptionQueries int64

	// StaticOutcome records what the static refinement pre-verifier did
	// with this query: StaticProved, StaticRefuted, StaticBailout, or ""
	// when the rung was off or never reached (Unsupported).
	StaticOutcome string
	// StaticRule names the rung that proved refinement ("fold",
	// "term-equal", "alpha-equal", "subsume"); empty unless proved.
	StaticRule string
	// StaticNS is the wall time the static rung spent, measured only
	// when Observe is set (stage.stv histogram); 0 otherwise.
	StaticNS int64

	// SrcEncProved is always false. The shared src encoding layer is
	// gone; the name survives only because perfbench/trace reads it, and
	// a later change to the benchmark deletes it. Nothing else may read
	// it.
	SrcEncProved bool

	// PortfolioRaced marks a query on which the fallback leg counted (the
	// canonical leg ran out of budget with Options.Portfolio on).
	// PortfolioWinner is then 1 when the fallback's Unsat proof became
	// the verdict and -1 when it did not; it is 0 otherwise.
	PortfolioRaced  bool
	PortfolioWinner int
}

// Options configures verification.
type Options struct {
	// ConflictBudget caps SAT conflicts (0 = unlimited). The solver checks
	// it only at restart boundaries (sat.Solver.Budget), so a solve may
	// overshoot it by up to one Luby round. Under the campaign's 4000 the
	// fallback leg's first round ends at about 4000 conflicts; when it
	// ends exactly on the budget the leg runs a second round, to about
	// 8000, and that round is where its rescues come from.
	ConflictBudget int64
	// Observe, when non-nil, receives every query's Result and wall time,
	// on the goroutine that called Verify. The fuzzing loop wires this to
	// per-verdict latency histograms; it is nil — and costs nothing —
	// otherwise. A loop running on several workers calls it concurrently.
	Observe func(r Result, d time.Duration)

	// Incremental solves the refinement query as per-class
	// (calls/UB/return/memory) assumption-gated queries on one shared
	// SAT session instead of one monolithic CNF, retaining learnt
	// clauses across the classes. The canonical monolithic solve starts
	// on its own goroutine just before the session and runs beside it.
	// The incremental path may conclude Valid on its own, and the
	// canonical solve is then interrupted and discarded; any other
	// outcome takes the canonical solve's result, so Invalid
	// counterexamples and Unsupported reasons are byte-identical with the
	// baseline. The one permitted divergence is strictly
	// one-directional: a query the monolithic baseline abandons at the
	// conflict budget (Unknown) may be proven Valid here, because the
	// per-class queries can fit under a budget the monolithic CNF
	// exhausts. Acceleration never turns a decided verdict into anything
	// else (docs/PERFORMANCE.md).
	//
	// The session engages only under a tight conflict budget (0 <
	// ConflictBudget <= 10000) and when at least two refinement classes
	// survive structural folding; otherwise budget Unknowns are absent
	// or rare, the split cannot beat the monolithic solve, and the
	// canonical path runs alone (see sessionEngages).
	Incremental bool
	// Static enables the static refinement pre-verifier as the first
	// rung after encoding: structural query folding, term-level summary
	// equality, and the IR-level prover in internal/analysis/refine. The
	// rung may only short-circuit Valid verdicts it can prove SAT would
	// return — refuted or undecided queries fall through to the solver
	// untouched — so result tables, witnesses, and triage trees are
	// byte-identical with the rung off. Like Incremental, the one
	// permitted divergence is one-directional: a query the budgeted
	// solver would abandon as Unknown may be proven Valid statically.
	Static bool
	// SrcEnc is ignored. The shared src encoding layer is gone; the
	// field survives only because perfbench/trace sets it, and a later
	// change to the benchmark deletes it. Nothing else may set it.
	SrcEnc *SrcEncodings
	// Concrete is ignored. The concrete-execution rung is gone; the
	// field survives only because perfbench/trace sets it, and a later
	// change to the benchmark deletes it. Nothing else may set it.
	Concrete bool
	// Portfolio turns on the fallback leg of the monolithic solve (see
	// monolithic): any value of 2 or more means on, anything less off.
	// When the canonical solve exhausts the conflict budget, the same
	// query is solved again under smt.FallbackConfig, and a fallback
	// Unsat proof rescues the verdict to Valid. The fallback starts
	// beside the canonical solve, or, with the incremental session
	// engaged, as soon as the session fails. Every decided verdict,
	// model and witness is the canonical leg's, bit for bit; like
	// Incremental, the only permitted divergence is one-directional
	// Unknown→Valid. The field is an int only because perfbench/trace
	// sets it to 3.
	Portfolio int
	// Cache, when non-nil, memoizes the solve stage's results keyed by a
	// digest of the encoded query (see cache.go): the lookup comes after
	// the static rung, and a hit replays the stored Valid or budget
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

	e, reason := encode(mod, src, tgt)
	if e == nil {
		return Result{Verdict: Unsupported, Reason: reason}
	}
	srcSum, tgtSum, query := e.srcSum, e.tgtSum, e.query

	var staticOutcome string
	var staticNS int64
	if opts.Static {
		// The rung's latency is measured only for Observe, like every
		// other telemetry-only timer.
		var t0 time.Time
		if opts.Observe != nil {
			t0 = time.Now() // vet:determinism — rung latency, telemetry only
		}
		rule, outcome := staticProve(mod, src, tgt, srcSum, tgtSum, query)
		if opts.Observe != nil {
			staticNS = int64(time.Since(t0)) // vet:determinism — rung latency, telemetry only
		}
		if outcome == StaticProved {
			r := Result{Verdict: Valid, StaticOutcome: outcome, StaticRule: rule, StaticNS: staticNS}
			if opts.NeedFingerprint {
				r.FP = solveKey(e, opts).String()
			}
			return r
		}
		staticOutcome = outcome
	}

	// Verdict cache: a query already solved in this unit replays its
	// result (see cache.go). The key also names the query in spans.
	var key Key
	if opts.Cache != nil || opts.NeedFingerprint {
		key = solveKey(e, opts)
	}
	r, hit := Result{}, false
	if opts.Cache != nil {
		r, hit = opts.Cache.lookup(key)
	}
	if !hit {
		r = solve(src, e, opts)
		if opts.Cache != nil {
			opts.Cache.store(key, r)
		}
	}
	r.StaticOutcome, r.StaticNS = staticOutcome, staticNS
	if opts.NeedFingerprint {
		r.FP = key.String()
	}
	return r
}

// solve is the solve stage: the incremental session beside the canonical
// monolithic solve, or the monolithic solve alone.
func solve(src *ir.Function, e *encoding, opts Options) Result {
	if opts.Incremental && sessionEngages(e.vc, e.query, opts) {
		// The canonical solve starts first, on its own goroutine, and the
		// session runs beside it. Only a session Valid short-circuits: the
		// canonical leg is interrupted and discarded. Anything else falls
		// back to the canonical result — the exact baseline query — with
		// the session's solver already dropped, so Invalid counterexamples
		// and budget-boundary Unknowns are byte-identical with
		// acceleration off and judged as if the canonical solve had
		// started after the session.
		m := startMonolithic(e.query, opts, true)
		if r, done := solveAccelerated(e.ctx, e.vc, e.query, opts); done {
			m.cancel()
			return r
		}
		return m.wait(src)
	}
	return solveMonolithic(src, e.query, opts)
}

// ReachedSolveStage reports whether the query got past encoding and the
// static rung to the solve stage, where the verdict cache's lookup comes
// first. Only encoding returns Unsupported.
func (r Result) ReachedSolveStage() bool {
	return r.Verdict != Unsupported && r.StaticOutcome != StaticProved
}

// encoding is a pair's refinement query, built once per Verify.
type encoding struct {
	ctx            *semantics.Context
	srcSum, tgtSum *semantics.Summary
	vc             violationClasses
	query          *smt.Term
}

// encode builds the pair's violation query: satisfiable exactly when tgt
// fails to refine src. A nil encoding comes with the Unsupported reason.
func encode(mod *ir.Module, src, tgt *ir.Function) (*encoding, string) {
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
	vc, reason, supported := buildViolation(ctx, src, srcSum, tgtSum)
	if !supported {
		return nil, reason
	}
	return &encoding{ctx, srcSum, tgtSum, vc, b.And(ctx.Axioms(), vc.monolithic)}, ""
}

// monolithic is the canonical decision procedure in flight: one CNF for
// the whole violation disjunction, solved by the canonical leg and, with
// racing on (Options.Portfolio), by the fallback leg, each on a fresh
// solver of its own.
//
// The verdict is the one the sequential schedule reaches: the canonical
// leg, then the fallback leg only if the canonical one ran out of
// budget. Whenever the canonical leg decides, its result, Sat model
// included, is the verdict, byte-identical to racing off. On a canonical
// budget Unknown the fallback counts, all of its run, and may contribute
// one thing: an Unsat proof, which is configuration-independent ground
// truth, rescuing the query to Valid. A fallback Sat leaves the
// canonical Unknown standing, since a non-canonical model cannot replace
// the canonical one.
//
// A leg's trajectory depends on nothing but its configuration (Terms are
// immutable), so the fallback may start early — beside the canonical
// leg, or as soon as the incremental session fails — without changing a
// number; it is interrupted when the canonical leg decides. The verdict
// can therefore differ from racing off only by Unknown→Valid, the
// one-directional budget rescue the session is allowed too
// (Options.Incremental).
type monolithic struct {
	query           *smt.Term
	racing          bool
	canon, fallback leg
}

// leg is one solver configuration's solve of the query.
type leg struct {
	c     smt.Checker
	stop  atomic.Bool
	res   smt.Result
	model smt.Model
	// done is closed once res, model and c's statistics are written; it
	// is nil until the leg starts.
	done chan struct{}
}

// start runs the leg on its own goroutine when async is set, and to its
// end before returning otherwise.
func (l *leg) start(query *smt.Term, async bool) {
	l.c.Stop = &l.stop
	l.done = make(chan struct{})
	run := func() {
		defer close(l.done)
		l.res, l.model = l.c.Check(query)
	}
	if async {
		go run()
	} else {
		run()
	}
}

// interrupt stops the leg, if it started, and waits for it to return.
func (l *leg) interrupt() {
	if l.done != nil {
		l.stop.Store(true)
		<-l.done
	}
}

// startMonolithic starts the canonical leg of query's solve (see
// leg.start for async).
func startMonolithic(query *smt.Term, opts Options, async bool) *monolithic {
	m := &monolithic{query: query, racing: opts.fallbackOn()}
	m.canon.c = smt.Checker{ConflictBudget: opts.ConflictBudget}
	m.fallback.c = smt.Checker{ConflictBudget: opts.ConflictBudget, Config: smt.FallbackConfig}
	m.canon.start(query, async)
	return m
}

// solveMonolithic is the baseline decision procedure, start to finish.
// With racing off the canonical leg runs on the calling goroutine; with
// it on, the fallback leg starts beside it.
func solveMonolithic(src *ir.Function, query *smt.Term, opts Options) Result {
	return startMonolithic(query, opts, opts.fallbackOn()).wait(src)
}

// fallbackOn reports whether Options.Portfolio turns the fallback leg on.
func (opts Options) fallbackOn() bool { return opts.Portfolio >= 2 }

// cancel interrupts both legs and waits for them; the solve's result is
// discarded.
func (m *monolithic) cancel() {
	m.canon.interrupt()
	m.fallback.interrupt()
}

// wait starts the fallback leg, unless racing is off or the canonical
// leg has already decided, then waits for the verdict and renders it.
func (m *monolithic) wait(src *ir.Function) Result {
	if m.racing {
		select {
		case <-m.canon.done:
			if m.canon.res == smt.Unknown {
				m.fallback.start(m.query, true)
			}
		default:
			m.fallback.start(m.query, true)
		}
	}
	<-m.canon.done
	c := &m.canon.c
	out := Result{Conflicts: c.LastConflicts, Propagations: c.LastPropagations, SATVars: c.LastVars}
	res := m.canon.res
	if res != smt.Unknown || !m.racing {
		m.fallback.interrupt()
	} else {
		<-m.fallback.done
		out.Conflicts += m.fallback.c.LastConflicts
		out.Propagations += m.fallback.c.LastPropagations
		out.PortfolioRaced, out.PortfolioWinner = true, -1
		if m.fallback.res == smt.Unsat {
			res, out.PortfolioWinner = smt.Unsat, 1
		}
	}
	switch res {
	case smt.Unsat:
		out.Verdict = Valid
	case smt.Sat:
		out.Verdict = Invalid
		out.Reason = "target does not refine source"
		out.CEX = extractCEX(src, m.canon.model)
	default:
		out.Verdict = Unknown
		out.Reason = "solver budget exhausted"
	}
	return out
}

// sessionMaxBudget bounds the conflict budgets under which the
// incremental per-class session engages. The split pays for itself by
// rescuing queries the monolithic solve abandons at the budget; the
// probability of that falls as the budget grows, and on the throughput
// benchmark's generous default (30k conflicts, nothing abandoned) the
// split is a pure ~60% TV-stage regression. 10k keeps every fuzzing
// configuration (campaign default: 4k) on the fast path while excluding
// the benchmark/offline regimes. Tuned in docs/PERFORMANCE.md.
const sessionMaxBudget = 10000

// sessionEngages is the incremental session's gate: a tight conflict
// budget and at least two refinement classes that survive structural
// folding. The split cannot pay for itself otherwise. The per-class
// session earns its overhead exactly when the monolithic solve is likely
// to abandon the query at the conflict budget: each class is a strictly
// weaker formula, so its proof can fit under a budget the disjunction
// exhausts. That happens under tight budgets (fuzzing campaigns). It
// cannot happen at all without a budget, is rare under a generous one,
// and is structurally impossible with fewer than two live classes — in
// those regimes N per-class proofs measurably cost more than the one
// disjunction proof (docs/PERFORMANCE.md), so the canonical path runs
// alone. A query the builder already folded to a constant needs no
// solver either way.
func sessionEngages(vc violationClasses, query *smt.Term, opts Options) bool {
	if opts.ConflictBudget <= 0 || opts.ConflictBudget > sessionMaxBudget ||
		query.IsTrue() || query.IsFalse() {
		return false
	}
	return len(vc.live()) >= 2
}

// live returns the refinement classes that survive structural folding.
func (vc violationClasses) live() []*smt.Term {
	var live []*smt.Term
	for _, cl := range []*smt.Term{vc.calls, vc.ub, vc.ret, vc.mem} {
		if !cl.IsFalse() {
			live = append(live, cl)
		}
	}
	return live
}

// solveAccelerated runs the incremental per-class decision phase on a
// query sessionEngages admits. It may only short-circuit the Valid
// verdict (every refinement class refuted); for any other outcome it
// reports done=false and the caller falls back to the canonical
// monolithic solve. Valid verdicts carry the session's solver
// statistics.
func solveAccelerated(ctx *semantics.Context, vc violationClasses, query *smt.Term, opts Options) (Result, bool) {
	live := vc.live()
	se := smt.NewSession(opts.ConflictBudget)
	se.BindVars(smt.Vars(query))
	se.Assert(ctx.Axioms())
	acts := make([]sat.Lit, 0, len(live))
	for _, cl := range live {
		acts = append(acts, se.Activation(cl))
	}
	for _, a := range acts {
		// The conflict budget is shared across the class queries, not per
		// class: the session as a whole never spends more than one
		// monolithic solve's budget, so a budget-exhausting pair costs at
		// most 2x baseline (session + canonical fallback) instead of
		// (classes+1)x. The cap is deliberately not tighter: the
		// budget-boundary Valid proofs the split makes possible need most
		// of it (halving the cap loses them, measured on the 995-mutant
		// slice).
		remaining := opts.ConflictBudget - se.S.Conflicts
		if remaining <= 0 {
			return Result{}, false
		}
		se.S.Budget = remaining
		if se.Solve(a) != smt.Unsat {
			return Result{}, false
		}
	}
	return Result{
		Verdict:           Valid,
		Conflicts:         se.S.Conflicts,
		Propagations:      se.S.Propagations,
		SATVars:           se.S.NumVars(),
		AssumptionQueries: se.Assumptions,
	}, true
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

// violationClasses carries the monolithic violation term alongside its
// four-way split by refinement class. The monolithic term is built by
// exactly the same construction sequence as the pre-split code, so the
// baseline (and canonical-fallback) CNF, models, and counterexamples are
// bit-for-bit unchanged. The classes partition it:
//
//	calls: a call obligation failed (argument values, observable memory
//	       at a call site, or a structurally illegal call-sequence edit)
//	ub:    target has UB where the source does not
//	ret:   return value fails to refine
//	mem:   final caller-visible memory fails to refine
//
// Their union is logically equivalent to the monolithic term — the
// distribution of guard ∧ (¬oblig ∨ (oblig ∧ facts ∧ (UB ∨ retViol ∨
// ¬memOK))) over the inner disjunction.
type violationClasses struct {
	monolithic *smt.Term
	calls      *smt.Term
	ub         *smt.Term
	ret        *smt.Term
	mem        *smt.Term
}

// buildViolation constructs the bv1 term that is satisfiable exactly when
// refinement fails, as a disjunction over all (source path, target path)
// pairs, together with its per-class split.
func buildViolation(ctx *semantics.Context, src *ir.Function,
	srcSum, tgtSum *semantics.Summary) (vc violationClasses, reason string, supported bool) {

	b := ctx.B
	vc = violationClasses{
		monolithic: b.Bool(false),
		calls:      b.Bool(false),
		ub:         b.Bool(false),
		ret:        b.Bool(false),
		mem:        b.Bool(false),
	}
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
				return violationClasses{}, pairReason, false
			}
			if comp.structural {
				// A structurally illegal call-sequence change is itself
				// the violation: if these paths co-occur on a defined
				// input, the target performed calls the source did not
				// permit.
				pairViol := b.Bool(true)
				vc.monolithic = b.Or(vc.monolithic, b.And(guard, pairViol))
				vc.calls = b.Or(vc.calls, guard)
				continue
			}
			// Violation: an obligation failed outright, or all held
			// (pinning the shared call results) and the core refinement
			// still failed.
			pairViol := b.Or(b.Not(comp.oblig), b.And(comp.oblig, b.And(comp.facts, comp.core)))
			vc.monolithic = b.Or(vc.monolithic, b.And(guard, pairViol))

			// Class split (built after the monolithic term so its
			// construction sequence is untouched; hash-consing makes the
			// shared pieces free).
			held := b.And(guard, b.And(comp.oblig, comp.facts))
			vc.calls = b.Or(vc.calls, b.And(guard, b.Not(comp.oblig)))
			vc.ub = b.Or(vc.ub, b.And(held, comp.ub))
			vc.ret = b.Or(vc.ret, b.And(held, comp.retViol))
			vc.mem = b.Or(vc.mem, b.And(held, comp.memViol))
		}
	}
	return vc, "", true
}

// pairComponents carries the pieces of one path pair's violation
// condition. structural marks a call-sequence mismatch whose violation
// is the whole guard; otherwise core = ub ∨ retViol ∨ ¬memOK assembled
// in the original construction order.
type pairComponents struct {
	structural bool
	oblig      *smt.Term
	facts      *smt.Term
	core       *smt.Term
	ub         *smt.Term
	retViol    *smt.Term
	memViol    *smt.Term
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

	retViol := b.Bool(false)
	core := tp.UB
	if !voidRet && sp.HasRet && tp.HasRet {
		sr, tr := sp.Ret, tp.Ret
		if sr.Prov > semantics.ProvExternal || tr.Prov > semantics.ProvExternal {
			return pairComponents{}, "returning a stack-local pointer", false
		}
		retViol = b.And(b.Not(sr.Poison),
			b.Or(tr.Poison, b.Ne(sr.Bits, tr.Bits)))
		core = b.Or(core, retViol)
	}

	// Final caller-visible memory must refine.
	probe := ctx.ProbeVar("final")
	memOK := byteRefines(b,
		sp.FinalMem.GetByte(semantics.ProvExternal, probe),
		tp.FinalMem.GetByte(semantics.ProvExternal, probe))
	core = b.Or(core, b.Not(memOK))

	return pairComponents{
		oblig:   oblig,
		facts:   facts,
		core:    core,
		ub:      tp.UB,
		retViol: retViol,
		memViol: b.Not(memOK),
	}, "", true
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
