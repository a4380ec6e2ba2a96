package tv

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
)

// tvPair is one (module, src, tgt) refinement query for the equivalence
// suite.
type tvPair struct {
	name     string
	mod      *ir.Module
	src, tgt *ir.Function
}

// equivalencePairs assembles a mixed-verdict corpus: handwritten pairs
// covering each verdict class, plus corpus modules run through the
// correct optimizer (mostly Valid) and through pipelines with seeded
// miscompilations enabled (a realistic Invalid mix).
func equivalencePairs(t *testing.T) []tvPair {
	t.Helper()
	var pairs []tvPair
	hand := []struct{ name, src, tgt string }{
		{"identical", `define i32 @f(i32 %x) {
  %a = add i32 %x, %x
  ret i32 %a
}`, `define i32 @f(i32 %x) {
  %a = add i32 %x, %x
  ret i32 %a
}`},
		{"valid-peephole", `define i32 @f(i32 %x) {
  %a = add i32 %x, %x
  ret i32 %a
}`, `define i32 @f(i32 %x) {
  %a = shl i32 %x, 1
  ret i32 %a
}`},
		{"invalid-constant", `define i8 @f(i8 %x) {
  %a = add i8 %x, 1
  ret i8 %a
}`, `define i8 @f(i8 %x) {
  %a = add i8 %x, 2
  ret i8 %a
}`},
		{"invalid-added-nsw", `define i8 @f(i8 %x) {
  %a = add i8 %x, 100
  ret i8 %a
}`, `define i8 @f(i8 %x) {
  %a = add nsw i8 %x, 100
  ret i8 %a
}`},
		{"valid-branch", `define i32 @f(i32 %n, i32 %d) {
entry:
  %nz = icmp ne i32 %d, 0
  br i1 %nz, label %safe, label %fb
safe:
  %q = udiv i32 %n, %d
  ret i32 %q
fb:
  ret i32 0
}`, `define i32 @f(i32 %n, i32 %d) {
entry:
  %nz = icmp eq i32 %d, 0
  br i1 %nz, label %fb, label %safe
safe:
  %q = udiv i32 %n, %d
  ret i32 %q
fb:
  ret i32 0
}`},
	}
	for _, h := range hand {
		sm := parser.MustParse(h.src)
		tm := parser.MustParse(h.tgt)
		pairs = append(pairs, tvPair{h.name, sm, sm.Defs()[0], tm.Defs()[0]})
	}

	addOptimized := func(tag string, seed uint64, bugs *opt.BugSet) {
		mod := corpus.Generate(seed, 5)
		trial := mod.Clone()
		ctx := opt.NewContext(trial)
		ctx.Bugs = bugs
		func() {
			defer func() { recover() }() // crash bugs are not under test here
			opt.RunPasses(ctx, opt.O2())
		}()
		for _, fn := range trial.Defs() {
			src := mod.FuncByName(fn.Name)
			if src == nil || fn.String() == src.String() {
				continue
			}
			pairs = append(pairs, tvPair{
				name: fmt.Sprintf("%s-seed%d-%s", tag, seed, fn.Name),
				mod:  mod, src: src, tgt: fn,
			})
		}
	}
	for seed := uint64(0); seed < 4; seed++ {
		addOptimized("clean", seed, nil)
	}
	buggy := (&opt.BugSet{}).
		Enable(opt.Bug53252ClampPredicate).
		Enable(opt.Bug53218GVNFlagMerge).
		Enable(opt.Bug55287UremUdiv).
		Enable(opt.Bug55284OrAndMiscompile)
	for seed := uint64(100); seed < 106; seed++ {
		addOptimized("buggy", seed, buggy)
	}
	return pairs
}

// sameOutcome asserts two Results agree on everything the campaign
// records: verdict, reason, and the full counterexample assignment.
func sameOutcome(t *testing.T, name, mode string, base, got Result) {
	t.Helper()
	if got.Verdict != base.Verdict || got.Reason != base.Reason {
		t.Fatalf("%s [%s]: verdict %v (%s), baseline %v (%s)",
			name, mode, got.Verdict, got.Reason, base.Verdict, base.Reason)
	}
	if (base.CEX == nil) != (got.CEX == nil) {
		t.Fatalf("%s [%s]: counterexample presence differs", name, mode)
	}
	if base.CEX != nil {
		if !reflect.DeepEqual(base.CEX.Inputs, got.CEX.Inputs) ||
			!reflect.DeepEqual(base.CEX.Poison, got.CEX.Poison) {
			t.Fatalf("%s [%s]: counterexample differs: %v vs baseline %v",
				name, mode, got.CEX, base.CEX)
		}
	}
}

// TestAcceleratedModesMatchBaseline: the verdict cache, filled and then
// replayed, must reproduce the baseline verdict, reason, and exact
// counterexample on a mixed corpus. This is the tv-level half of the
// byte-identity guarantee; campaign.TestCampaignLayerInvariance covers
// the campaign tables.
func TestAcceleratedModesMatchBaseline(t *testing.T) {
	pairs := equivalencePairs(t)
	verdicts := map[Verdict]int{}
	folded := 0
	// The corpus contains solver-hard pairs; a finite budget keeps the
	// test fast and additionally exercises agreement on budget Unknowns.
	const budget = 500
	for _, p := range pairs {
		base := Verify(p.mod, p.src, p.tgt, Options{ConflictBudget: budget})
		verdicts[base.Verdict]++
		c := NewCache()
		o := Options{ConflictBudget: budget, Cache: c}
		sameOutcome(t, p.name, "cache-fill", base, Verify(p.mod, p.src, p.tgt, o))
		replay := Verify(p.mod, p.src, p.tgt, o)
		sameOutcome(t, p.name, "cache-replay", base, replay)
		// Valid and budget Unknown results are served on replay; Invalid
		// ones re-solve, and neither an encoding-time Unsupported nor a
		// query that folds during encoding reaches the cache.
		if base.StaticOutcome == StaticProved {
			folded++
			if replay.CacheHit || c.Len() != 0 {
				t.Fatalf("%s: a folded query reached the cache", p.name)
			}
		} else if base.Verdict == Valid || base.Verdict == Unknown {
			if !replay.CacheHit {
				t.Fatalf("%s: second lookup of %v result missed the cache", p.name, base.Verdict)
			}
		} else if replay.CacheHit {
			t.Fatalf("%s: %v verdict must never be served from cache", p.name, base.Verdict)
		}
	}
	if verdicts[Valid] == 0 || verdicts[Invalid] == 0 || folded == 0 || folded == verdicts[Valid] {
		t.Fatalf("corpus lacks verdict diversity: %v, %d folded", verdicts, folded)
	}
	t.Logf("verdict mix across %d pairs: %v, %d folded", len(pairs), verdicts, folded)
}

// TestAcceleratedBudgetVerdictsMatch: at starvation-level conflict
// budgets a query that does not fold reports the same Unknown boundary
// with the verdict cache as without — budget verdicts are part of the
// result table — and one cache never serves a verdict across budgets.
func TestAcceleratedBudgetVerdictsMatch(t *testing.T) {
	mod, src, tgt := assocPair(t, "x", "y", "z", "")
	c := NewCache()
	unknowns := 0
	for _, budget := range []int64{1, 2, 4, 0} {
		base := Verify(mod, src, tgt, Options{ConflictBudget: budget})
		if base.StaticOutcome == StaticProved {
			t.Fatalf("budget=%d: the query folded; the test needs a solver-bound pair", budget)
		}
		if base.Verdict == Unknown {
			unknowns++
		}
		for _, mode := range []string{"cache-fill", "cache-replay"} {
			got := Verify(mod, src, tgt, Options{ConflictBudget: budget, Cache: c})
			sameOutcome(t, fmt.Sprintf("budget=%d", budget), mode, base, got)
		}
	}
	if unknowns == 0 {
		t.Fatal("no budget left the query Unknown; the boundary went unchecked")
	}
}

// TestCacheStatsAndStorePolicy: hits and misses count the solve-stage
// lookups; Valid and budget Unknown results are stored and replayed,
// Invalid ones always re-solve, and neither an encoding-time Unsupported
// nor a query that folds during encoding reaches the cache.
func TestCacheStatsAndStorePolicy(t *testing.T) {
	valid := parser.MustParse(`define i32 @f(i32 %x) {
  %a = add i32 %x, %x
  ret i32 %a
}`)
	validTgt := parser.MustParse(`define i32 @f(i32 %x) {
  %a = shl i32 %x, 1
  ret i32 %a
}`)
	invalid := parser.MustParse(`define i8 @g(i8 %x) {
  %a = add i8 %x, 1
  ret i8 %a
}`)
	invalidTgt := parser.MustParse(`define i8 @g(i8 %x) {
  %a = add i8 %x, 2
  ret i8 %a
}`)
	unsup := parser.MustParse(`define i32 @h(i32 %x) {
entry:
  br label %loop
loop:
  br label %loop
}`)
	folds := parser.MustParse(`define i32 @k(i32 %x) {
  %a = add i32 %x, 0
  ret i32 %a
}`)
	unknownMod, unknownSrc, unknownTgt := assocPair(t, "x", "y", "z", "")

	c := NewCache()
	o := Options{ConflictBudget: 300, Cache: c}

	r := Verify(valid, valid.Defs()[0], validTgt.Defs()[0], o)
	if r.Verdict != Valid || r.CacheHit {
		t.Fatalf("first valid query: %+v", r)
	}
	r = Verify(valid, valid.Defs()[0], validTgt.Defs()[0], o)
	if r.Verdict != Valid || !r.CacheHit {
		t.Fatalf("second valid query should hit: %+v", r)
	}

	for i := 0; i < 2; i++ {
		r = Verify(invalid, invalid.Defs()[0], invalidTgt.Defs()[0], o)
		if r.Verdict != Invalid || r.CacheHit || r.CEX == nil {
			t.Fatalf("invalid query %d must re-solve with a counterexample: %+v", i, r)
		}
	}

	first := Verify(unknownMod, unknownSrc, unknownTgt, o)
	if first.Verdict != Unknown || first.CacheHit {
		t.Fatalf("first budget-exhausted query: %+v", first)
	}
	r = Verify(unknownMod, unknownSrc, unknownTgt, o)
	if r.Verdict != Unknown || !r.CacheHit || r.Reason != first.Reason {
		t.Fatalf("second budget-exhausted query should hit with reason %q: %+v", first.Reason, r)
	}

	for i := 0; i < 2; i++ {
		r = Verify(unsup, unsup.Defs()[0], unsup.Defs()[0], o)
		if r.Verdict != Unsupported || r.CacheHit || r.Reason == "" {
			t.Fatalf("unsupported query %d: %+v", i, r)
		}
	}

	for i := 0; i < 2; i++ {
		r = Verify(folds, folds.Defs()[0], folds.Defs()[0], o)
		if r.Verdict != Valid || r.CacheHit || r.StaticOutcome != StaticProved {
			t.Fatalf("folded query %d: %+v", i, r)
		}
	}

	hits, misses := c.Stats()
	if hits != 2 || misses != 4 {
		t.Fatalf("stats = %d hits / %d misses, want 2/4", hits, misses)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2 (valid + unknown)", c.Len())
	}
}

// TestCacheHitsAcrossRenamedMutants: the core cross-mutant win — a mutant
// differing only in names must be served from cache without solving. The
// target drops the shl's nuw, so the pair does not fold and reaches the
// solve stage.
func TestCacheHitsAcrossRenamedMutants(t *testing.T) {
	pair := func(text string) (*ir.Module, *ir.Function, *ir.Function) {
		src := parser.MustParse(text)
		tgt := parser.MustParse(strings.Replace(text, "shl nuw", "shl", 1))
		return src, src.FuncByName("f"), tgt.FuncByName("f")
	}
	m1, s1, t1 := pair(richFn(nil))
	m2, s2, t2 := pair(richFn(map[string]string{
		"A": "n", "B": "m", "a": "t0", "c": "t1", "p": "t2", "l": "t3",
		"s": "t4", "E": "begin", "L": "yes", "R": "no",
	}))
	c := NewCache()
	o := Options{Cache: c}
	r1 := Verify(m1, s1, t1, o)
	if r1.Verdict != Valid || r1.CacheHit || !r1.ReachedSolveStage() {
		t.Fatalf("first solve: %+v", r1)
	}
	r2 := Verify(m2, s2, t2, o)
	if r2.Verdict != Valid || !r2.CacheHit {
		t.Fatalf("renamed mutant should be a cache hit: %+v", r2)
	}
}

// richFn builds one function text exercising flags, predicates, calls,
// memory, and branching, with every name drawn from the given table.
func richFn(names map[string]string) string {
	t := `declare void @clobber(ptr %p)
define i32 @f(i32 %A, i32 %B) {
E:
  %a = add nsw i32 %A, %B
  %c = icmp slt i32 %a, 7
  br i1 %c, label %L, label %R
L:
  %p = alloca i32, align 4
  store i32 %a, ptr %p, align 4
  call void @clobber(ptr %p)
  %l = load i32, ptr %p, align 4
  ret i32 %l
R:
  %s = shl nuw i32 %B, 2
  ret i32 %s
}`
	for from, to := range names {
		t = replaceToken(t, from, to)
	}
	return t
}

// replaceToken substitutes %from / label references for a renamed
// variant. Names in the fixture are chosen so plain substring replacement
// of the sigil-prefixed form is unambiguous.
func replaceToken(text, from, to string) string {
	out := ""
	for i := 0; i < len(text); {
		if i+1+len(from) <= len(text) && text[i] == '%' && text[i+1:i+1+len(from)] == from {
			// Reject partial-token matches (e.g. %a inside %ab).
			end := i + 1 + len(from)
			if end == len(text) || !isNameByte(text[end]) {
				out += "%" + to
				i = end
				continue
			}
		}
		// Block labels appear both as "label %X" (handled above) and as
		// leading "X:" definitions.
		if (i == 0 || text[i-1] == '\n') && i+len(from) < len(text) &&
			text[i:i+len(from)] == from && text[i+len(from)] == ':' {
			out += to + ":"
			i += len(from) + 1
			continue
		}
		out += string(text[i])
		i++
	}
	return out
}

func isNameByte(b byte) bool {
	return b == '_' || b == '.' || (b >= '0' && b <= '9') ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}
