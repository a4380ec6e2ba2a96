package tv

import (
	"repro/internal/ir"
	"repro/internal/semantics"
	"repro/internal/smt"
)

// Campaign-level shared src encodings. Every mutant of one seed function
// is a structural perturbation of the same source, so the solver-bound
// queries of one campaign unit re-encode and re-blast mostly-identical
// term DAGs from scratch. A SrcEncodings pool keeps one hash-consed
// Builder + semantics Context + incremental SAT session per *signature
// shard* of the unit (see below); verifySolve routes every query that
// survives the cheap rungs (static fold, concrete screen) through the
// pool's probe before any fresh solve. On the shared context, subterms
// the mutants share with the seed (and with each other) hash-cons to
// the same *Term, the session's blaster memoizes their CNF, so
// recurring circuitry is blasted once per shard instead of once per
// query — and the solver's learnt clauses accumulate across the unit,
// so each probe starts with everything the earlier ones derived. Src
// summaries are additionally memoized by a src-only alpha-invariant
// fingerprint, covering repeated verification of the same source
// against different targets.
//
// Only solver-bound queries touch the pool — deliberately. The static
// rung discharges the large majority of a unit's queries for
// microseconds each, and an encoding is pure pollution unless its query
// actually probes: in particular the Context's initial-memory reads are
// Ackermann-expanded pairwise against every earlier read, so feeding
// the statically-provable 85% through the shared context would grow the
// axiom set (and the session's CNF) quadratically in work that is never
// solved for.
//
// Sharding by signature is a soundness requirement, not an optimization:
// the semantics Context keys input variables by parameter index and
// emits attribute axioms (noundef ⇒ poison=0, nonnull ⇒ addr≠0) on
// first touch, so queries sharing a Context must agree exactly on
// parameter types and attributes — a width mismatch panics, and a
// noundef axiom leaking into a non-noundef query would strengthen it
// unsoundly. Mutants that perturb the signature land in their own shard.
//
// Soundness of the shared probe (why a polluted session may prove
// Valid): relative to a fresh encoding of the same query, the shared
// session's clause set differs only by (a) earlier queries' guard
// clauses, neutralized by their retired ¬activation units, (b) earlier
// queries' Tseitin gate definitions, which are definitional extensions,
// and (c) earlier queries' semantic axioms. Every axiom the Context
// emits is extension-safe within a signature shard: input axioms are
// keyed by parameter index and identical across the shard's queries;
// initial-memory reads are Ackermann expansions (fresh var + pairwise
// functional-consistency implications), so any model of the clean query
// extends to the polluted axioms by evaluating the Ackermann function
// graph; freeze and call return values are bare unconstrained variables.
// The polluted query is therefore equisatisfiable-or-weaker-only in one
// direction: Unsat(shared) ⇒ Unsat(clean) ⇒ Valid. Sat or Unknown from
// the probe proves nothing about the clean query, and those queries
// re-solve on the canonical fresh path — so tables, witnesses, and
// triage trees are byte-identical with sharing off, with the usual
// one-directional Unknown→Valid budget-rescue divergence (a probe backed
// by the unit's learnt clauses can fit a proof under a budget the fresh
// CNF exhausts).
//
// A SrcEncodings pool is deliberately shard-local to the campaign unit
// (one pool per unit, single goroutine, no locks): hit counts and probe
// effort stay a pure function of the seed's deterministic mutant
// sequence at any worker count.

// Pool caps, all deterministic. A shard is retired — torn down and
// lazily rebuilt from scratch — after serving srcEncMaxQueries probes or
// once its solver grows past srcEncMaxVars (axiom and gate accumulation
// is monotone, so a long-lived session's CNF only grows, and an
// oversized clause database taxes every later probe's propagation);
// shards beyond srcEncMaxShards evict FIFO. After srcEncMaxSrcFails
// source encodings fail, the pool disables itself: a seed outside the
// encodable fragment pays the doomed shared-encode attempt a bounded
// number of times, not once per solver-bound query.
const (
	srcEncMaxShards   = 8
	srcEncMaxQueries  = 64
	srcEncMaxVars     = 1 << 16
	srcEncMaxSrcFails = 4
)

// Probe conflict budget: a small fixed fraction of the per-query budget
// (with a floor when the query is unbudgeted). The probe exists to
// collect cheap Valid proofs off the shared CNF — on the campaign slice
// the median fresh Valid proof needs ~10² conflicts — while queries
// that are genuinely hard (destined Unknown or Invalid) should reach
// the canonical path having wasted as little polluted-session search as
// possible. A probe abort is invisible: it falls through exactly like a
// probe Sat.
const (
	srcEncProbeBudgetDiv = 32
	srcEncProbeBudgetMin = 128
	// srcEncProbePropBudget caps unit propagations per probe. On a
	// long-lived session the clause database — and with it the cost of
	// every restart's re-propagation — grows with each query, so a
	// conflict cap alone no longer bounds a probe's wall time: a doomed
	// probe can burn millions of propagations on a hundred conflicts.
	// The cap is calibrated to a typical fresh solver-bound query's
	// whole-solve propagation count, so a successful probe costs at most
	// about one fresh solve and a doomed one usually much less.
	srcEncProbePropBudget = 1 << 18
)

// probeBudget derives the probe's conflict cap from the query budget.
func probeBudget(conflictBudget int64) int64 {
	b := conflictBudget / srcEncProbeBudgetDiv
	if b < srcEncProbeBudgetMin {
		b = srcEncProbeBudgetMin
	}
	return b
}

// srcShard is one signature class's shared encoding context.
type srcShard struct {
	b   *smt.Builder
	ctx *semantics.Context
	enc *semantics.Encoder
	se  *smt.Session
	// srcSums memoizes source summaries by src-only fingerprint within
	// this shard (dropped with the shard — summaries point into its
	// builder).
	srcSums map[Key]*semantics.Summary
	queries int
}

// SrcEncodings shares encoding contexts across the solver-bound queries
// of one campaign unit. Not safe for concurrent use; create one per
// unit (see campaign.BugConfig).
type SrcEncodings struct {
	shards map[Key]*srcShard
	order  []Key // insertion order, for deterministic FIFO eviction

	srcFails int
	disabled bool

	// Hits count probes served on an existing shard; Misses count probes
	// that (re)built one; Resets counts cap retirements and evictions.
	// The tv.srcenc.{hit,miss} telemetry feed is derived from per-Result
	// outcomes; these totals serve tests and reports.
	Hits, Misses, Resets int64
}

// Shared-src outcomes recorded on Result.SrcEncOutcome. Empty means the
// query never reached the probe rung (cache hit, static discharge,
// concrete divergence, or sharing off) — the same not-reached convention
// the other rung outcomes use.
const (
	SrcEncHit     = "hit"     // probed on an existing shared encoding context
	SrcEncMiss    = "miss"    // this probe built its signature's shared context
	SrcEncBailout = "bailout" // shared path unusable (pool disabled or encoding failed)
)

// NewSrcEncodings creates an empty per-unit pool; shards are built
// lazily as solver-bound signatures appear.
func NewSrcEncodings() *SrcEncodings {
	return &SrcEncodings{shards: make(map[Key]*srcShard)}
}

// shard returns the signature class's shared context, building it on a
// miss.
func (s *SrcEncodings) shard(key Key, opts Options) (sh *srcShard, hit bool) {
	if sh, ok := s.shards[key]; ok {
		return sh, true
	}
	b := smt.NewBuilder()
	b.Rewrite = !opts.DisableRewrites
	ctx := semantics.NewContext(b)
	sh = &srcShard{
		b:       b,
		ctx:     ctx,
		enc:     &semantics.Encoder{Ctx: ctx},
		se:      smt.NewSession(0),
		srcSums: make(map[Key]*semantics.Summary),
	}
	if len(s.order) >= srcEncMaxShards {
		delete(s.shards, s.order[0])
		s.order = s.order[1:]
		s.Resets++
	}
	s.shards[key] = sh
	s.order = append(s.order, key)
	return sh, false
}

// retire drops a shard that hit its caps; its signature's next probe
// rebuilds it (and counts as a miss).
func (s *SrcEncodings) retire(key Key) {
	if _, ok := s.shards[key]; !ok {
		return
	}
	delete(s.shards, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.Resets++
}

// probe attempts the shared-session Valid short-circuit for a query that
// survived the cheap rungs. done reports success: the returned Result is
// the verdict (verifySolve stamps the cheap-rung outcomes on it). When
// done is false the Result carries only the probe's SrcEncOutcome and
// effort counters, which the caller folds into the canonical result so
// sat.conflicts stays an honest total. Unsat is the only probe outcome
// acted on; everything else re-solves on the canonical fresh path, so
// only byte-identical-or-rescued short-circuits ever surface.
func (s *SrcEncodings) probe(mod *ir.Module, src, tgt *ir.Function, opts Options) (Result, bool) {
	if s.disabled {
		return Result{SrcEncOutcome: SrcEncBailout}, false
	}

	// src and tgt agree on the signature (verifySolve checked), so the
	// src signature names the shard for the whole query.
	key := sigFingerprint(src)
	sh, hit := s.shard(key, opts)
	outcome := SrcEncMiss
	if hit {
		outcome = SrcEncHit
	}

	// Both sides encode on the shard's builder. The encoder's module is
	// rebound per query (mutants live in distinct modules); the src memo
	// key pins everything the src side reads from its module, so a
	// fingerprint-equal source from another module is semantically
	// interchangeable.
	sh.enc.Mod = mod
	srcKey := SrcFingerprint(mod, src, opts)
	srcSum, ok := sh.srcSums[srcKey]
	if !ok {
		sum, err := sh.enc.Encode(src)
		if err != nil {
			s.srcFails++
			if s.srcFails >= srcEncMaxSrcFails {
				s.disabled = true
			}
			return Result{SrcEncOutcome: SrcEncBailout}, false
		}
		sh.srcSums[srcKey] = sum
		srcSum = sum
	}
	tgtSum, err := sh.enc.Encode(tgt)
	if err != nil {
		return Result{SrcEncOutcome: SrcEncBailout}, false
	}
	vc, _, supported := buildViolation(sh.ctx, src, srcSum, tgtSum)
	if !supported {
		return Result{SrcEncOutcome: SrcEncBailout}, false
	}
	if hit {
		s.Hits++
	} else {
		s.Misses++
	}

	// Assert the (monotonically grown) axiom conjunction — the memoized
	// blaster emits clauses only for axioms new since the last probe —
	// activate this query's violation term, and spend at most one
	// query's budget.
	sh.se.Assert(sh.ctx.Axioms())
	act := sh.se.Activation(vc.monolithic)
	c0, p0 := sh.se.S.Conflicts, sh.se.S.Propagations
	sh.se.S.Budget = probeBudget(opts.ConflictBudget)
	sh.se.S.PropBudget = srcEncProbePropBudget
	res := sh.se.Solve(act)
	// Retire the activation guard so later probes carry one fewer live
	// assumption candidate and the spent guard clause is satisfied.
	sh.se.S.AddClause(act.Neg())
	sh.queries++
	nvars := sh.se.S.NumVars()
	conflicts, props := sh.se.S.Conflicts-c0, sh.se.S.Propagations-p0
	if sh.queries >= srcEncMaxQueries || nvars >= srcEncMaxVars {
		s.retire(key)
	}
	if res == smt.Unsat {
		return Result{
			Verdict:           Valid,
			Conflicts:         conflicts,
			Propagations:      props,
			SATVars:           nvars,
			AssumptionQueries: 1,
			SrcEncOutcome:     outcome,
			SrcEncProved:      true,
		}, true
	}
	return Result{
		Conflicts:     conflicts,
		Propagations:  props,
		SrcEncOutcome: outcome,
	}, false
}
