package tv

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/mutate"
	"repro/internal/opt"
	"repro/internal/parser"
)

// The static pre-verifier's differential soundness harness: drive the
// campaign's own pair generator (corpus module → mutate → optimize) at
// scale and cross-check every static claim against the full SAT solve.
// The contract under test is the one docs/PERFORMANCE.md ("Layer 0")
// states: a static Proved must coincide with the verdict SAT would
// return (Valid), with the single documented one-directional exception
// that a budget-limited Unknown may be statically proven Valid. Any
// other divergence — above all a static Proved on a SAT Invalid — is a
// soundness violation and fails the run.

// staticSoundnessPairs is the number of (src, tgt) refinement pairs
// every run cross-checks (the acceptance bar), `make race` included;
// only an explicit `go test -short` checks 1000 instead.
const staticSoundnessPairs = 10000

func TestStaticSoundnessDifferential(t *testing.T) {
	want := staticSoundnessPairs
	if testing.Short() {
		want = 1000
	}
	// A finite budget keeps hard queries from stalling the harness and
	// additionally exercises the documented Unknown→Valid divergence.
	const budget = 2000
	baseOpts := Options{ConflictBudget: budget}
	statOpts := Options{ConflictBudget: budget, Static: true}

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
		pairs, proved, bailout int
		provedUnknown          int
		verdicts               map[Verdict]int
		rules                  map[string]int
	}{verdicts: map[Verdict]int{}, rules: map[string]int{}}

	check := func(seed uint64, mod *ir.Module, src, tgt *ir.Function) {
		stats.pairs++
		base := Verify(mod, src, tgt, baseOpts)
		stat := Verify(mod, src, tgt, statOpts)
		stats.verdicts[base.Verdict]++
		switch stat.StaticOutcome {
		case StaticProved:
			stats.proved++
			stats.rules[stat.StaticRule]++
			if base.Verdict == Unknown {
				stats.provedUnknown++ // documented one-directional divergence
			} else if base.Verdict != Valid {
				t.Fatalf("seed %d @%s: static %s (%s) but SAT says %v (%s)\nsrc:\n%s\ntgt:\n%s",
					seed, tgt.Name, stat.StaticOutcome, stat.StaticRule,
					base.Verdict, base.Reason, src, tgt)
			}
		case StaticBailout:
			stats.bailout++
		}
		sameOutcome(t, tgt.Name, "static", base, stat)
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

	// Every rung must have proved something, or its soundness went
	// unchecked.
	for _, rule := range []string{"fold", "term-equal"} {
		if stats.rules[rule] == 0 {
			t.Fatalf("harness never exercised the %s rung; rules %v", rule, stats.rules)
		}
	}
	if stats.verdicts[Invalid] == 0 {
		t.Fatalf("corpus lacks Invalid pairs; verdict mix %v", stats.verdicts)
	}
	t.Logf("checked %d pairs: %d proved (%d over budget-Unknowns), %d bailout; verdicts %v; rules %v; 0 violations",
		stats.pairs, stats.proved, stats.provedUnknown, stats.bailout,
		stats.verdicts, stats.rules)
}

// TestStaticShortCircuitSkipsSolver: a statically proved query must not
// touch the SAT solver — that is the whole point of the rung.
func TestStaticShortCircuitSkipsSolver(t *testing.T) {
	src := parser.MustParse(`define i32 @f(i32 %x) {
  %a = add i32 %x, 1
  %b = mul i32 %a, %a
  ret i32 %b
}`)
	r := Verify(src, src.Defs()[0], src.Defs()[0], Options{Static: true})
	if r.Verdict != Valid {
		t.Fatalf("identical pair: verdict %v (%s)", r.Verdict, r.Reason)
	}
	if r.StaticOutcome != StaticProved {
		t.Fatalf("identical pair not statically proved: %q (%q)", r.StaticOutcome, r.StaticRule)
	}
	if r.Conflicts != 0 || r.Propagations != 0 {
		t.Fatalf("static proof still burned solver effort: %d conflicts, %d propagations",
			r.Conflicts, r.Propagations)
	}
}

// TestStaticOutcomeOffByDefault: the rung must stay inert unless opted
// into, so existing callers see byte-identical Results.
func TestStaticOutcomeOffByDefault(t *testing.T) {
	src := parser.MustParse(`define i8 @f(i8 %x) {
  ret i8 %x
}`)
	r := Verify(src, src.Defs()[0], src.Defs()[0], Options{})
	if r.StaticOutcome != "" || r.StaticRule != "" || r.StaticNS != 0 {
		t.Fatalf("static fields set with the rung off: %+v", r)
	}
}
