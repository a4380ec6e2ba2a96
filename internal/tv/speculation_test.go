package tv

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/smt"
)

// sequentialVerify is the schedule Verify's speculation is judged in:
// the incremental session runs to its end, and only then does the
// monolithic solve start, in sequentialMonolithic. The static rung is
// off in the callers' options, so this is all of verifySolve.
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
	return sequentialMonolithic(p.src, e.query, opts)
}

// sequentialMonolithic is the reference schedule of the monolithic
// solve: the Checker runs to its end on the calling goroutine.
func sequentialMonolithic(src *ir.Function, query *smt.Term, opts Options) Result {
	c := smt.Checker{ConflictBudget: opts.ConflictBudget}
	res, model := c.Check(query)
	out := Result{Conflicts: c.LastConflicts, Propagations: c.LastPropagations, SATVars: c.LastVars}
	switch res {
	case smt.Unsat:
		out.Verdict = Valid
	case smt.Sat:
		out.Verdict, out.Reason, out.CEX = Invalid, "target does not refine source", extractCEX(src, model)
	default:
		out.Verdict, out.Reason = Unknown, "solver budget exhausted"
	}
	return out
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

// TestSpeculationMatchesSequentialOracle: starting the monolithic solve
// beside the incremental session must give every Result field the
// sequential schedule gives — verdict, counterexample, solver effort and
// session bookkeeping. Only queries the session engages on are
// compared: on the rest Verify calls solveMonolithic alone, which
// TestMonolithicMatchesSequentialSchedule covers. Besides the campaign
// budget (4000 conflicts), the corpus runs at a starvation budget, where
// most sessions fail; raceFixture forces a session failure after which
// the monolithic solve runs out of budget too. The cases must cover a
// session proof, a monolithic decision after the session failed, and a
// monolithic budget Unknown after it failed.
func TestSpeculationMatchesSequentialOracle(t *testing.T) {
	pairs := append(equivalencePairs(t), examplePairs(t)...)
	seen := map[string]bool{}
	check := func(p tvPair, opts Options) {
		t.Helper()
		if e, _ := encode(p.mod, p.src, p.tgt); e == nil || !sessionEngages(e.vc, e.query, opts) {
			return // Verify calls solveMonolithic alone
		}
		want := sequentialVerify(t, p, opts)
		got := Verify(p.mod, p.src, p.tgt, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at budget %d: speculative Verify gave %+v, sequential schedule %+v", p.name, opts.ConflictBudget, got, want)
		}
		switch {
		case got.AssumptionQueries > 0:
			seen["session proved"] = true
		case got.Verdict == Unknown:
			seen["monolithic out of budget"] = true
		default:
			seen["monolithic decided"] = true
		}
	}
	for _, budget := range []int64{4000, 4} {
		for _, p := range pairs {
			check(p, Options{ConflictBudget: budget, Incremental: true})
		}
	}

	opts := Options{ConflictBudget: raceBudget, Incremental: true}
	fx := raceFixture(t)
	e, reason := encode(fx.mod, fx.src, fx.tgt)
	if e == nil {
		t.Fatalf("%s does not encode: %s", fx.name, reason)
	}
	if !sessionEngages(e.vc, e.query, opts) {
		t.Fatalf("%s: the session does not engage (%d live classes)", fx.name, len(e.vc.live()))
	}
	if r := solveMonolithic(fx.src, e.query, Options{ConflictBudget: raceBudget}); r.Verdict != Unknown {
		t.Fatalf("%s: monolithic solve gave %v at budget %d, want Unknown", fx.name, r.Verdict, raceBudget)
	}
	check(fx, opts)

	for _, c := range []string{"session proved", "monolithic decided", "monolithic out of budget"} {
		if !seen[c] {
			t.Errorf("no query covered %q", c)
		}
	}
}

// raceBudget is the conflict budget raceFixture is run at. The solver
// checks a budget at its restarts, so the monolithic solve still spends
// about 100 conflicts on it.
const raceBudget = 4

// raceFixture is a Valid pair that the session cannot prove at
// raceBudget: the target expands (x+y)² into x² + 2xy + y², and also
// divides by it, so the return and UB classes are both live and both ask
// for the equivalence of two 16-bit multiplier circuits.
func raceFixture(t *testing.T) tvPair {
	t.Helper()
	const ty = "i16"
	src := parser.MustParse(strings.ReplaceAll(`define T @f(T %x, T %y, T %n) {
  %s = add T %x, %y
  %m = mul T %s, %s
  %q = udiv T %n, %m
  %r = add T %q, %m
  ret T %r
}`, "T", ty))
	tgt := parser.MustParse(strings.ReplaceAll(`define T @f(T %x, T %y, T %n) {
  %xx = mul T %x, %x
  %xy = mul T %x, %y
  %xy2 = shl T %xy, 1
  %yy = mul T %y, %y
  %t = add T %xx, %xy2
  %m = add T %t, %yy
  %q = udiv T %n, %m
  %r = add T %q, %m
  ret T %r
}`, "T", ty))
	return tvPair{"race-fixture-" + ty, src, src.Defs()[0], tgt.Defs()[0]}
}

// distributivityQuery is an Unsat refutation (x*(y+1) != x*y + x) that
// needs a real CDCL proof: about 2.5k conflicts at width 6.
func distributivityQuery(w int) *smt.Term {
	b := smt.NewBuilder()
	x, y := b.Var(w, "x"), b.Var(w, "y")
	return b.Ne(b.Mul(x, b.Add(y, b.Const(w, 1))), b.Add(b.Mul(x, y), x))
}

// waitGoroutines requires the goroutine count to come back to baseline:
// every leg must have returned once wait or cancel has. A leg signals
// its end from a deferred call, so it may take a moment to disappear.
func waitGoroutines(t *testing.T, what string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still running, baseline %d", what, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMonolithicMatchesSequentialSchedule: the monolithic solve must
// give exactly what sequentialMonolithic gives — verdict, model and
// effort — whether it runs on the calling goroutine or on its own. The
// cases cover every way the solve ends: Sat, Unsat and out of budget.
//
// Every case runs solveMonolithic, then start and wait after a random
// delay, then start and cancel after a random delay, at GOMAXPROCS 1
// and 4; after each, the solve's goroutine must have returned.
func TestMonolithicMatchesSequentialSchedule(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var(8, "x"), b.Var(8, "y")
	cases := []struct {
		name   string
		query  *smt.Term
		budget int64
		want   Verdict
	}{
		{"Sat", b.Eq(b.Mul(x, y), b.Const(8, 77)), 4000, Invalid},
		{"Unsat", distributivityQuery(4), 4000, Valid},
		{"out of budget", distributivityQuery(10), 10, Unknown},
	}
	fn := &ir.Function{}
	r := rand.New(rand.NewSource(4242))
	delay := func() time.Duration { return time.Duration(r.Intn(400)) * time.Microsecond }
	for _, c := range cases {
		opts := Options{ConflictBudget: c.budget}
		want := sequentialMonolithic(fn, c.query, opts)
		if want.Verdict != c.want {
			t.Fatalf("%s: sequential schedule gave %v, want %v", c.name, want.Verdict, c.want)
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			where := fmt.Sprintf("%s, GOMAXPROCS %d", c.name, procs)
			baseline := runtime.NumGoroutine()
			check := func(how string, got Result) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %s: %+v, sequential schedule %+v", where, how, got, want)
				}
				waitGoroutines(t, where+", "+how, baseline)
			}
			check("solveMonolithic", solveMonolithic(fn, c.query, opts))

			m := startMonolithic(c.query, opts, true)
			time.Sleep(delay())
			check("start, delay, wait", m.wait(fn))

			m = startMonolithic(c.query, opts, true)
			time.Sleep(delay())
			m.cancel()
			waitGoroutines(t, where+", start, delay, cancel", baseline)
			runtime.GOMAXPROCS(prev)
		}
	}
}
