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
// solve: the canonical Checker runs to its end on the calling goroutine,
// then, only if it ran out of budget with racing on, the fallback
// Checker, whose Unsat alone rescues the query.
func sequentialMonolithic(src *ir.Function, query *smt.Term, opts Options) Result {
	canon := smt.Checker{ConflictBudget: opts.ConflictBudget}
	res, model := canon.Check(query)
	out := Result{Conflicts: canon.LastConflicts, Propagations: canon.LastPropagations, SATVars: canon.LastVars}
	if res == smt.Unknown && opts.fallbackOn() {
		fallback := smt.Checker{ConflictBudget: opts.ConflictBudget, Config: smt.FallbackConfig}
		fres, _ := fallback.Check(query)
		out.Conflicts += fallback.LastConflicts
		out.Propagations += fallback.LastPropagations
		out.PortfolioRaced, out.PortfolioWinner = true, -1
		if fres == smt.Unsat {
			res, out.PortfolioWinner = smt.Unsat, 1
		}
	}
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

// TestSpeculationMatchesSequentialOracle: starting the canonical solve
// beside the incremental session, and the fallback leg when its result
// is needed, must give every Result field the sequential schedule gives —
// verdict, counterexample, solver effort, session and portfolio
// bookkeeping. Only queries the session engages on are compared: on the
// rest Verify calls solveMonolithic alone, which
// TestPortfolioRaceMatchesSequentialSchedule covers. Besides the campaign
// budget (4000 conflicts), the corpus runs at a starvation budget, where
// most sessions fail. The race and the rescue are forced by raceFixture
// at raceBudget: at width 16 neither leg can afford the proof, at width
// 6 the canonical leg runs out and the fallback leg alone proves it,
// each checked separately. The cases must cover a session proof, a
// canonical decision after the session failed, a race that rescues
// nothing, and a rescue.
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
		case got.PortfolioRaced && got.PortfolioWinner == 1:
			seen["rescued"] = true
		case got.PortfolioRaced:
			seen["raced"] = true
		default:
			seen["canonical decided"] = true
		}
	}
	for _, budget := range []int64{4000, 4} {
		for _, p := range pairs {
			check(p, Options{ConflictBudget: budget, Incremental: true, Portfolio: 2})
		}
	}

	opts := Options{ConflictBudget: raceBudget, Incremental: true, Portfolio: 2}
	for _, c := range []struct {
		width    int
		fallback smt.Result
	}{{16, smt.Unknown}, {6, smt.Unsat}} {
		fx := raceFixture(t, c.width)
		e, reason := encode(fx.mod, fx.src, fx.tgt)
		if e == nil {
			t.Fatalf("%s does not encode: %s", fx.name, reason)
		}
		if !sessionEngages(e.vc, e.query, opts) {
			t.Fatalf("%s: the session does not engage (%d live classes)", fx.name, len(e.vc.live()))
		}
		if r := solveMonolithic(fx.src, e.query, Options{ConflictBudget: raceBudget}); r.Verdict != Unknown {
			t.Fatalf("%s: canonical leg gave %v at budget %d, want Unknown", fx.name, r.Verdict, raceBudget)
		}
		fallback := smt.Checker{ConflictBudget: raceBudget, Config: smt.FallbackConfig}
		if res, _ := fallback.Check(e.query); res != c.fallback {
			t.Fatalf("%s: fallback leg gave %v at budget %d, want %v", fx.name, res, raceBudget, c.fallback)
		}
		check(fx, opts)
	}

	for _, c := range []string{"session proved", "canonical decided", "raced", "rescued"} {
		if !seen[c] {
			t.Errorf("no query covered %q", c)
		}
	}
}

// raceBudget is the conflict budget raceFixture is run at. The solver
// checks a budget at its restarts, so the canonical leg still spends
// about 100 conflicts on it and the fallback leg about 4000; the test
// asserts what each leg makes of that.
const raceBudget = 4

// raceFixture is a Valid pair at the given width that the session cannot
// prove at raceBudget: the target expands (x+y)² into x² + 2xy + y², and
// also divides by it, so the return and UB classes are both live and
// both ask for the equivalence of two multiplier circuits. At width 16
// that is far beyond both legs; at width 6 it is beyond the canonical
// leg's first restart round but within the fallback leg's.
func raceFixture(t *testing.T, width int) tvPair {
	t.Helper()
	ty := fmt.Sprintf("i%d", width)
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

// factorQuery asks for a nontrivial factorization x*y = p*q with both
// factors below 2^(w/2+1): satisfiable, and at width 16 a model the
// canonical leg's first restart round misses and the fallback leg finds.
func factorQuery(w int, p, q uint64) *smt.Term {
	b := smt.NewBuilder()
	x, y := b.Var(w, "x"), b.Var(w, "y")
	one, lim := b.Const(w, 1), b.Const(w, 1<<(w/2+1))
	return b.And(b.Eq(b.Mul(x, y), b.Const(w, p*q)),
		b.And(b.And(b.Ult(one, x), b.Ult(one, y)), b.And(b.Ult(x, lim), b.Ult(y, lim))))
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

// TestPortfolioRaceMatchesSequentialSchedule: the two-leg monolithic
// solve must give exactly what sequentialMonolithic gives — verdict,
// model, winner and the effort of every counted leg — whatever order the
// legs' goroutines run in. The cases cover every way the solve ends: the
// canonical leg decides Sat or Unsat, the fallback rescues the query, a
// fallback Sat leaves Unknown, and both legs run out of budget.
//
// Every case runs solveMonolithic, then start and wait after a random
// delay, then start, the fallback leg, and cancel after a random delay,
// at GOMAXPROCS 1 and 4; after each, every leg must have returned.
func TestPortfolioRaceMatchesSequentialSchedule(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var(8, "x"), b.Var(8, "y")
	cases := []struct {
		name   string
		query  *smt.Term
		budget int64
		want   Verdict
		winner int
	}{
		{"canonical Sat", b.Eq(b.Mul(x, y), b.Const(8, 77)), 4000, Invalid, 0},
		{"canonical Unsat", distributivityQuery(4), 4000, Valid, 0},
		{"rescue", distributivityQuery(6), 40, Valid, 1},
		{"fallback Sat", factorQuery(16, 251, 241), 4, Unknown, -1},
		{"both out of budget", distributivityQuery(10), 10, Unknown, -1},
	}
	fn := &ir.Function{}
	r := rand.New(rand.NewSource(4242))
	delay := func() time.Duration { return time.Duration(r.Intn(400)) * time.Microsecond }
	for _, c := range cases {
		opts := Options{ConflictBudget: c.budget, Portfolio: 2}
		want := sequentialMonolithic(fn, c.query, opts)
		if want.Verdict != c.want || want.PortfolioWinner != c.winner || want.PortfolioRaced != (c.winner != 0) {
			t.Fatalf("%s: sequential schedule gave %v, winner %d (raced %v); want %v, winner %d",
				c.name, want.Verdict, want.PortfolioWinner, want.PortfolioRaced, c.want, c.winner)
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
			m.fallback.start(c.query, true)
			time.Sleep(delay())
			m.cancel()
			waitGoroutines(t, where+", start, delay, cancel", baseline)
			runtime.GOMAXPROCS(prev)
		}
	}
}
