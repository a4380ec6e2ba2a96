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
// starvation budget, where most sessions fail and the race engages. The
// cases must cover a session proof, a canonical decision after the
// session failed, and a race.
func TestSpeculationMatchesSequentialOracle(t *testing.T) {
	pairs := append(equivalencePairs(t), examplePairs(t)...)
	seen := map[string]bool{}
	for _, budget := range []int64{4000, 4} {
		opts := Options{ConflictBudget: budget, Incremental: true, Portfolio: 3}
		for _, p := range pairs {
			if e, _ := encode(p.mod, p.src, p.tgt); e == nil || !sessionEngages(e.vc, e.query, opts) {
				continue // Verify calls solveMonolithic alone, as the oracle does
			}
			want := sequentialVerify(t, p, opts)
			got := Verify(p.mod, p.src, p.tgt, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at budget %d: speculative Verify gave %+v, sequential schedule %+v", p.name, budget, got, want)
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
	}
	for _, c := range []string{"session proved", "canonical decided", "raced"} {
		if !seen[c] {
			t.Errorf("no query covered %q", c)
		}
	}
}
