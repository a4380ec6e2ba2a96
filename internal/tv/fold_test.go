package tv

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/mutate"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/semantics"
	"repro/internal/smt"
)

// The fold's differential soundness harness: drive the campaign's own
// pair generator (corpus module → mutate → optimize) at scale, and
// re-check every query that folded to false during encoding — which
// Verify returns Valid without a solve — by re-encoding it with the
// Builder's rewriting off and solving that. A Sat there means a rewrite
// rule folded a refutable query: a soundness violation that fails the
// run.

// foldSoundnessPairs is the number of (src, tgt) refinement pairs every
// run checks, `make race` included; only an explicit `go test -short`
// checks 1000 instead.
const foldSoundnessPairs = 10000

func TestFoldSoundnessDifferential(t *testing.T) {
	want := foldSoundnessPairs
	if testing.Short() {
		want = 1000
	}
	// A finite budget keeps hard queries from stalling the harness.
	const budget = 2000
	opts := Options{ConflictBudget: budget}

	// Seeded miscompilations on a slice of the modules mirror the
	// campaign's workload; genuinely Invalid pairs come from cross-pairing
	// two different mutants of the same function below (semantic mutation
	// rarely preserves behaviour).
	buggy := (&opt.BugSet{}).
		Enable(opt.Bug53252ClampPredicate).
		Enable(opt.Bug53218GVNFlagMerge).
		Enable(opt.Bug55287UremUdiv).
		Enable(opt.Bug55284OrAndMiscompile)

	stats := struct {
		pairs, folded, refolded, unknown int
		verdicts                         map[Verdict]int
	}{verdicts: map[Verdict]int{}}

	check := func(seed uint64, mod *ir.Module, src, tgt *ir.Function) {
		stats.pairs++
		r := Verify(mod, src, tgt, opts)
		stats.verdicts[r.Verdict]++
		if r.StaticOutcome != StaticProved {
			return
		}
		stats.folded++
		query, reason := encodeUnrewritten(mod, src, tgt)
		if query == nil {
			t.Fatalf("seed %d @%s: folded, but unsupported without rewriting: %s", seed, tgt.Name, reason)
		}
		if query.IsFalse() {
			stats.refolded++ // hash-consing alone folds it
			return
		}
		c := smt.Checker{ConflictBudget: budget}
		switch res, _ := c.Check(query); res {
		case smt.Sat:
			t.Fatalf("seed %d @%s: the query folded to false, but without rewriting it is Sat\nsrc:\n%s\ntgt:\n%s",
				seed, tgt.Name, src, tgt)
		case smt.Unknown:
			stats.unknown++
		}
	}

	for seed := uint64(0); stats.pairs < want; seed++ {
		mod := corpus.Generate(seed*0x9e37+1, 2)
		mu := mutate.New(mod, mutate.Config{})
		for mi := uint64(0); mi < 3 && stats.pairs < want; mi++ {
			mutant := mu.Mutate(seed*131 + mi)
			trial := mutant.Clone()
			ctx := opt.NewContext(trial)
			if seed%5 == 4 {
				ctx.Bugs = buggy
			}
			func() {
				defer func() { recover() }() // crash bugs are not under test here
				opt.RunPasses(ctx, opt.O2())
			}()
			for _, tgt := range trial.Defs() {
				if stats.pairs >= want {
					break
				}
				src := mutant.FuncByName(tgt.Name)
				if src == nil || src.String() == tgt.String() {
					continue // the fuzzing loop's textual fast path skips these
				}
				check(seed, mutant, src, tgt)
			}
		}
		// Cross-mutant pairs: two independent mutants of the same function
		// almost never refine each other, which keeps the Invalid mix
		// realistic and pins the rungs' behaviour on refutable pairs.
		ma := mu.Mutate(seed*131 + 77)
		mb := mu.Mutate(seed*131 + 177)
		for _, src := range ma.Defs() {
			if stats.pairs >= want {
				break
			}
			tgt := mb.FuncByName(src.Name)
			if tgt == nil || src.String() == tgt.String() {
				continue
			}
			check(seed, ma, src, tgt)
		}
	}

	if stats.folded == 0 {
		t.Fatalf("no query folded; verdict mix %v", stats.verdicts)
	}
	if stats.verdicts[Invalid] == 0 {
		t.Fatalf("corpus lacks Invalid pairs; verdict mix %v", stats.verdicts)
	}
	t.Logf("checked %d pairs, verdicts %v: %d folded (%d fold without rewriting, %d Unknown unrewritten at budget %d), 0 Sat",
		stats.pairs, stats.verdicts, stats.folded, stats.refolded, stats.unknown, budget)
}

// encodeUnrewritten builds the pair's violation query as encode does, but
// with the Builder's rewriting off, so only hash-consing can fold it.
func encodeUnrewritten(mod *ir.Module, src, tgt *ir.Function) (*smt.Term, string) {
	b := smt.NewBuilder()
	b.Rewrite = false
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

// TestFoldedQuerySkipsSolver: under any Options — here the zero value —
// a query that folds during encoding is Valid without touching the SAT
// solver, and is fingerprinted only when asked.
func TestFoldedQuerySkipsSolver(t *testing.T) {
	src := parser.MustParse(`define i32 @f(i32 %x) {
  %a = add i32 %x, 1
  %b = mul i32 %a, %a
  ret i32 %b
}`)
	f := src.Defs()[0]
	r := Verify(src, f, f, Options{})
	if r.Verdict != Valid || r.StaticOutcome != StaticProved {
		t.Fatalf("identical pair: verdict %v (%s), static outcome %q; want a folded Valid",
			r.Verdict, r.Reason, r.StaticOutcome)
	}
	if r.Conflicts != 0 || r.Propagations != 0 || r.SATVars != 0 {
		t.Fatalf("folded query still reached the solver: %+v", r)
	}
	if r.FP != "" || r.ReachedSolveStage() {
		t.Fatalf("folded query: FP %q, reached solve stage %t; want neither", r.FP, r.ReachedSolveStage())
	}
	if fp := Verify(src, f, f, Options{NeedFingerprint: true}).FP; fp == "" {
		t.Fatal("NeedFingerprint set, but the folded query has no FP")
	}
}

// TestStaticShortCircuitSkipsSolver: Options.Static is ignored, so a
// caller that still sets it gets the same folded Valid, with no solver
// effort, as one that does not.
func TestStaticShortCircuitSkipsSolver(t *testing.T) {
	src := parser.MustParse(`define i32 @f(i32 %x) {
  %a = add i32 %x, 1
  %b = mul i32 %a, %a
  ret i32 %b
}`)
	f := src.Defs()[0]
	r := Verify(src, f, f, Options{Static: true})
	if r.Verdict != Valid {
		t.Fatalf("identical pair: verdict %v (%s)", r.Verdict, r.Reason)
	}
	if r.StaticOutcome != StaticProved {
		t.Fatalf("identical pair not folded: static outcome %q", r.StaticOutcome)
	}
	if r.Conflicts != 0 || r.Propagations != 0 {
		t.Fatalf("folded query still burned solver effort: %d conflicts, %d propagations",
			r.Conflicts, r.Propagations)
	}
	if plain := Verify(src, f, f, Options{}); plain != r {
		t.Fatalf("Options.Static changed the result:\nwith:    %+v\nwithout: %+v", r, plain)
	}
}
