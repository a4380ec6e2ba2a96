package tv

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/mutate"
	"repro/internal/opt"
	"repro/internal/parser"
)

// assocPair is a solver-bound refinement query: reassociating a 5-bit
// multiplication is Valid, but the proof needs hundreds of conflicts, so
// a small budget leaves it Unknown. extra is spliced into the target
// before its return.
func assocPair(t *testing.T, x, y, z, extra string) (*ir.Module, *ir.Function, *ir.Function) {
	t.Helper()
	src := parser.MustParse(fmt.Sprintf(`define i5 @f(i5 %%%[1]s, i5 %%%[2]s, i5 %%%[3]s) {
  %%p = mul i5 %%%[1]s, %%%[2]s
  %%q = mul i5 %%p, %%%[3]s
  ret i5 %%q
}`, x, y, z))
	tgt := parser.MustParse(fmt.Sprintf(`define i5 @f(i5 %%%[1]s, i5 %%%[2]s, i5 %%%[3]s) {
  %%p = mul i5 %%%[2]s, %%%[3]s
  %%q = mul i5 %%%[1]s, %%p
%[4]s  ret i5 %%q
}`, x, y, z, extra))
	return src, src.Defs()[0], tgt.Defs()[0]
}

// TestRenamedPairsSolveAlike is the premise of the cache's alpha-invariant
// key: a pair and its renamed copy, verified with no cache, take the same
// search — equal conflicts, propagations and verdict — whether the solve
// decides or runs out of budget. Spans name a query by the same key
// (Result.FP): the renamed pair shares it, while the pair at another
// budget, or a pair with another verdict, does not.
func TestRenamedPairsSolveAlike(t *testing.T) {
	fps := map[string]string{}
	for _, budget := range []int64{300, 0} {
		m1, s1, t1 := assocPair(t, "x", "y", "z", "")
		m2, s2, t2 := assocPair(t, "n", "d", "k", "")
		o := Options{ConflictBudget: budget, NeedFingerprint: true}
		r1, r2 := Verify(m1, s1, t1, o), Verify(m2, s2, t2, o)
		if r1.Conflicts == 0 {
			t.Fatalf("budget %d: the query took no conflicts; the premise is vacuous", budget)
		}
		if r1.Verdict != r2.Verdict || r1.Conflicts != r2.Conflicts || r1.Propagations != r2.Propagations {
			t.Errorf("budget %d: renamed pair solved differently: %v/%d/%d vs %v/%d/%d", budget,
				r1.Verdict, r1.Conflicts, r1.Propagations, r2.Verdict, r2.Conflicts, r2.Propagations)
		}
		if r1.FP == "" || r1.FP != r2.FP {
			t.Errorf("budget %d: renamed pair has FPs %q and %q, want one non-empty FP", budget, r1.FP, r2.FP)
		}
		fps[fmt.Sprintf("budget %d (%v)", budget, r1.Verdict)] = r1.FP
	}
	m, s, _ := assocPair(t, "x", "y", "z", "")
	wrong := parser.MustParse(`define i5 @f(i5 %x, i5 %y, i5 %z) {
  %p = mul i5 %y, %z
  %q = add i5 %x, %p
  ret i5 %q
}`).Defs()[0]
	r := Verify(m, s, wrong, Options{NeedFingerprint: true})
	if r.Verdict != Invalid {
		t.Fatalf("mul→add pair: %v, want Invalid", r.Verdict)
	}
	fps["an Invalid pair at budget 0"] = r.FP
	seen := map[string]string{}
	for name, fp := range fps {
		if other, dup := seen[fp]; dup {
			t.Errorf("%s and %s share the FP %s", name, other, fp)
		}
		seen[fp] = name
	}
}

// TestCacheReplaysFoldedMutantExactly: two IR-distinct pairs whose
// difference (a dead instruction) folds away during encoding share one
// entry. At a budget where the first is Unknown, the second is served
// that Unknown with the same reason; decided, it is served the Valid.
func TestCacheReplaysFoldedMutantExactly(t *testing.T) {
	for _, c := range []struct {
		budget int64
		want   Verdict
	}{{300, Unknown}, {0, Valid}} {
		mA, sA, tA := assocPair(t, "x", "y", "z", "")
		mB, sB, tB := assocPair(t, "a", "b", "c", "  %dead = add i5 %a, 1\n")
		if sA.String()+tA.String() == sB.String()+tB.String() {
			t.Fatal("the pairs print alike; the test needs IR-distinct pairs")
		}
		cache := NewCache()
		o := Options{ConflictBudget: c.budget, Cache: cache}
		first := Verify(mA, sA, tA, o)
		if first.Verdict != c.want || first.CacheHit {
			t.Fatalf("budget %d: first pair %v (hit %t), want a solved %v", c.budget, first.Verdict, first.CacheHit, c.want)
		}
		second := Verify(mB, sB, tB, o)
		if !second.CacheHit || second.Verdict != first.Verdict || second.Reason != first.Reason {
			t.Errorf("budget %d: second pair %v %q (hit %t), want a hit replaying %v %q",
				c.budget, second.Verdict, second.Reason, second.CacheHit, first.Verdict, first.Reason)
		}
		if second.Conflicts != 0 || second.Propagations != 0 || second.SATVars != 0 {
			t.Errorf("budget %d: hit carries solver statistics %+v", c.budget, second)
		}
		resolved := Verify(mB, sB, tB, Options{ConflictBudget: c.budget})
		if resolved.Verdict != second.Verdict || resolved.Reason != second.Reason {
			t.Errorf("budget %d: replay %v %q, a fresh solve %v %q",
				c.budget, second.Verdict, second.Reason, resolved.Verdict, resolved.Reason)
		}
	}
}

// TestCacheKeySeparatesSolveModes: a query never shares an entry with
// the same query under another conflict budget.
func TestCacheKeySeparatesSolveModes(t *testing.T) {
	m, s, tg := assocPair(t, "x", "y", "z", "")
	q, reason := encode(m, s, tg)
	if q == nil {
		t.Fatalf("encode: %s", reason)
	}
	base := Options{ConflictBudget: 4000}
	k := solveKey(q, base)
	if solveKey(q, base) != k {
		t.Fatal("the key is not a function of its inputs")
	}
	for name, o := range map[string]Options{
		"ConflictBudget": {ConflictBudget: 3000},
	} {
		if solveKey(q, o) == k {
			t.Errorf("Options.%s not reflected in the key", name)
		}
	}
}

// TestCacheDifferentialOverMutants checks the verdict cache end to end:
// over a sequence of corpus mutants at budget 500, verifying with one
// shared cache gives the same verdict, reason and counterexample for
// every query, in order, as verifying with none.
func TestCacheDifferentialOverMutants(t *testing.T) {
	type query struct {
		mod      *ir.Module
		src, tgt *ir.Function
	}
	// Each mutant function is checked against its optimized form (mostly
	// Valid) and against the unmutated function it came from: a mutation
	// that changes behaviour makes that query Invalid, so counterexamples
	// are in the mix.
	var queries []query
	for seed := uint64(0); seed < 4; seed++ {
		mod := corpus.Generate(seed, 4)
		mu := mutate.New(mod, mutate.Config{})
		for i := uint64(0); i < 24; i++ {
			mutant := mu.Mutate(seed<<32 | i)
			optimized := mutant.Clone()
			ok := func() (ok bool) {
				defer func() { ok = recover() == nil }()
				opt.RunPasses(opt.NewContext(optimized), opt.O2())
				return true
			}()
			for _, fn := range mutant.Defs() {
				queries = append(queries, query{mutant, mod.FuncByName(fn.Name), fn})
				if tgt := optimized.FuncByName(fn.Name); ok && tgt.String() != fn.String() {
					queries = append(queries, query{mutant, fn, tgt})
				}
			}
		}
	}
	without := Options{ConflictBudget: 500}
	with := without
	with.Cache = NewCache()
	verdicts := map[Verdict]int{}
	for i, q := range queries {
		base := Verify(q.mod, q.src, q.tgt, without)
		got := Verify(q.mod, q.src, q.tgt, with)
		verdicts[base.Verdict]++
		if got.Verdict != base.Verdict || got.Reason != base.Reason {
			t.Fatalf("query %d: %v %q with the cache, %v %q without",
				i, got.Verdict, got.Reason, base.Verdict, base.Reason)
		}
		if (base.CEX == nil) != (got.CEX == nil) ||
			base.CEX != nil && !reflect.DeepEqual(base.CEX.Model, got.CEX.Model) {
			t.Fatalf("query %d: counterexample %v with the cache, %v without", i, got.CEX, base.CEX)
		}
	}
	hits, misses := with.Cache.Stats()
	if hits == 0 || misses == 0 || verdicts[Invalid] == 0 {
		t.Errorf("%d hits, %d misses, verdicts %v; the check is vacuous", hits, misses, verdicts)
	}
	t.Logf("%d queries %v, cache %d hits / %d misses", len(queries), verdicts, hits, misses)
}
