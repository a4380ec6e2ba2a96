package tv

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/parser"
)

// sequentialVerify is the schedule Verify's speculation is judged in:
// the incremental session runs to its end, and only then does the
// canonical monolithic solve start (with the portfolio's alternates
// after it, inside solveMonolithic). The static rung is off in the
// callers' options, so this is all of verifySolve.
func sequentialVerify(t *testing.T, p tvPair, opts Options) Result {
	t.Helper()
	if opts.Static || opts.Cache != nil {
		t.Fatal("sequentialVerify models the solver rungs only")
	}
	if err := checkSignatures(p.src, p.tgt); err != nil {
		return Result{Verdict: Unsupported, Reason: err.Error()}
	}
	e, reason := encode(p.mod, p.src, p.tgt)
	if e == nil {
		return Result{Verdict: Unsupported, Reason: reason}
	}
	if opts.Incremental && sessionEngages(e.vc, e.query, opts) {
		if r, done := solveAccelerated(e.ctx, e.vc, e.query, opts); done {
			return r
		}
	}
	return solveMonolithic(p.src, e.query, opts)
}

// examplePairs is the examples corpus as self-refinement queries.
func examplePairs(t *testing.T) []tvPair {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "ir")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("examples/ir: %v", err)
	}
	var pairs []tvPair
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".ll" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		mod := parser.MustParse(string(src))
		for _, f := range mod.Defs() {
			pairs = append(pairs, tvPair{e.Name() + "-" + f.Name, mod, f, f})
		}
	}
	return pairs
}

// TestSpeculationMatchesSequentialOracle: starting the canonical solve
// beside the incremental session, and the alternates when its result is
// needed, must give every Result field the sequential schedule gives —
// verdict, counterexample, solver effort, session and portfolio
// bookkeeping. Only queries the session engages on are compared: on the
// rest Verify calls solveMonolithic alone, exactly as the oracle does.
// Besides the campaign budget (4000 conflicts), the corpus runs at a
// starvation budget, where most sessions fail. The race is forced by
// raceFixture at raceBudget, whose canonical leg is checked to run out.
// The cases must cover a session proof, a canonical decision after the
// session failed, and a race.
func TestSpeculationMatchesSequentialOracle(t *testing.T) {
	pairs := append(equivalencePairs(t), examplePairs(t)...)
	seen := map[string]bool{}
	check := func(p tvPair, opts Options) {
		t.Helper()
		if e, _ := encode(p.mod, p.src, p.tgt); e == nil || !sessionEngages(e.vc, e.query, opts) {
			return // Verify calls solveMonolithic alone, as the oracle does
		}
		want := sequentialVerify(t, p, opts)
		got := Verify(p.mod, p.src, p.tgt, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at budget %d: speculative Verify gave %+v, sequential schedule %+v", p.name, opts.ConflictBudget, got, want)
		}
		switch {
		case got.AssumptionQueries > 0:
			seen["session proved"] = true
		case got.PortfolioRaced:
			seen["raced"] = true
		default:
			seen["canonical decided"] = true
		}
	}
	for _, budget := range []int64{4000, 4} {
		for _, p := range pairs {
			check(p, Options{ConflictBudget: budget, Incremental: true, Portfolio: 3})
		}
	}

	fx := raceFixture(t)
	opts := Options{ConflictBudget: raceBudget, Incremental: true, Portfolio: 3}
	e, reason := encode(fx.mod, fx.src, fx.tgt)
	if e == nil {
		t.Fatalf("race fixture does not encode: %s", reason)
	}
	if !sessionEngages(e.vc, e.query, opts) {
		t.Fatalf("race fixture: the session does not engage (%d live classes)", len(e.vc.live()))
	}
	if r := solveMonolithic(fx.src, e.query, Options{ConflictBudget: raceBudget}); r.Verdict != Unknown {
		t.Fatalf("race fixture: canonical leg gave %v at budget %d, want Unknown", r.Verdict, raceBudget)
	}
	check(fx, opts)

	for _, c := range []string{"session proved", "canonical decided", "raced"} {
		if !seen[c] {
			t.Errorf("no query covered %q", c)
		}
	}
}

// raceBudget is the conflict budget raceFixture is run at. The solver
// checks a budget at its restarts, so the canonical leg still spends
// about 100 conflicts on it; the test asserts that it runs out.
const raceBudget = 4

// raceFixture is a Valid pair the race must engage on: the target
// expands (x+y)² into x² + 2xy + y², and also divides by it, so the
// return and UB classes are both live and both ask for the equivalence
// of two 16-bit multiplier circuits, far beyond the canonical leg's
// budget.
func raceFixture(t *testing.T) tvPair {
	t.Helper()
	src := parser.MustParse(`define i16 @f(i16 %x, i16 %y, i16 %n) {
  %s = add i16 %x, %y
  %m = mul i16 %s, %s
  %q = udiv i16 %n, %m
  %r = add i16 %q, %m
  ret i16 %r
}`)
	tgt := parser.MustParse(`define i16 @f(i16 %x, i16 %y, i16 %n) {
  %xx = mul i16 %x, %x
  %xy = mul i16 %x, %y
  %xy2 = shl i16 %xy, 1
  %yy = mul i16 %y, %y
  %t = add i16 %xx, %xy2
  %m = add i16 %t, %yy
  %q = udiv i16 %n, %m
  %r = add i16 %q, %m
  ret i16 %r
}`)
	return tvPair{"race-fixture", src, src.Defs()[0], tgt.Defs()[0]}
}
