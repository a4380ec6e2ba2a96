package smt

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// Leg-level tests of the two solver configurations internal/tv runs on a
// monolithic query: the canonical leg and the fallback leg
// (FallbackConfig). The schedule that starts, judges and interrupts them
// is tested in internal/tv.

// checkerStats are a Checker's Last* fields.
type checkerStats struct {
	conflicts, propagations int64
	vars                    int
}

func statsOf(c *Checker) checkerStats {
	return checkerStats{c.LastConflicts, c.LastPropagations, c.LastVars}
}

// TestPortfolioCanonicalBitIdentity: the canonical leg, a Checker with a
// Stop flag that is never raised, is byte-identical to a plain
// Checker.Check — verdict, model and effort — and the fallback leg
// reaches the same verdict whenever both decide.
func TestPortfolioCanonicalBitIdentity(t *testing.T) {
	r := rng.New(991)
	for trial := 0; trial < 60; trial++ {
		b := NewBuilder()
		w := 3 + r.Intn(8)
		vars := []*Term{b.Var(w, "x"), b.Var(w, "y")}
		formula := b.Eq(buildRandomTerm(b, r, vars, 3), buildRandomTerm(b, r, vars, 3))

		var plain Checker
		wantRes, wantM := plain.Check(formula)
		canon := Checker{Stop: new(atomic.Bool)}
		gotRes, gotM := canon.Check(formula)
		if gotRes != wantRes || fmt.Sprint(gotM) != fmt.Sprint(wantM) || statsOf(&canon) != statsOf(&plain) {
			t.Fatalf("trial %d: canonical leg gave %v %v %+v, plain Checker %v %v %+v",
				trial, gotRes, gotM, statsOf(&canon), wantRes, wantM, statsOf(&plain))
		}
		fallback := Checker{Config: FallbackConfig, Stop: new(atomic.Bool)}
		if res, _ := fallback.Check(formula); res != wantRes {
			t.Fatalf("trial %d: fallback leg gave %v, canonical %v", trial, res, wantRes)
		}
	}
}

// distributivityQuery is an Unsat refutation (x*(y+1) != x*y + x) that
// needs a real CDCL proof — hash-consing cannot collapse it. At width 6
// the proof costs ~2.5k conflicts, comfortably beyond a tens-of-conflicts
// budget yet within the fallback leg's first restart round (the cost
// roughly squares per added bit, so keep the width small).
func distributivityQuery(w int) *Term {
	b := NewBuilder()
	x := b.Var(w, "x")
	y := b.Var(w, "y")
	return b.Ne(
		b.Mul(x, b.Add(y, b.Const(w, 1))),
		b.Add(b.Mul(x, y), x),
	)
}

// TestPortfolioRescuesBudgetUnknown is the fallback leg's reason to
// exist: at a budget the canonical leg abandons the query at, the
// fallback leg proves it Unsat, because its first restart round runs
// 4000 conflicts before the budget is checked. Both outcomes are
// deterministic.
func TestPortfolioRescuesBudgetUnknown(t *testing.T) {
	const budget = 40
	f := distributivityQuery(6)
	canon := Checker{ConflictBudget: budget}
	if res, _ := canon.Check(f); res != Unknown {
		t.Fatalf("canonical leg gave %v within %d conflicts, want Unknown", res, budget)
	}
	run := func() (Result, checkerStats) {
		c := Checker{ConflictBudget: budget, Config: FallbackConfig}
		res, m := c.Check(f)
		if m != nil {
			t.Fatalf("non-Sat verdict carried a model")
		}
		return res, statsOf(&c)
	}
	res1, st1 := run()
	if res1 != Unsat {
		t.Fatalf("fallback leg gave %v, want the Unsat rescue", res1)
	}
	if st1.conflicts <= budget {
		t.Fatalf("fallback leg proved it in %d conflicts; the canonical leg should then have too", st1.conflicts)
	}
	if res2, st2 := run(); res2 != res1 || st2 != st1 {
		t.Fatalf("fallback leg not deterministic: %v %+v, then %v %+v", res1, st1, res2, st2)
	}
}

// TestPortfolioAllLegsExhausted: on a query beyond both legs — width-10
// distributivity, orders of magnitude beyond any single restart round —
// both return Unknown, and each spends what its budget check allows:
// one restart round, 100 conflicts for the canonical leg and 4000 for
// the fallback leg (a round ends at the first decision after its quota,
// so it may run a few conflicts over).
func TestPortfolioAllLegsExhausted(t *testing.T) {
	f := distributivityQuery(10)
	for _, c := range []struct {
		name string
		leg  Checker
		want int64
	}{
		{"canonical", Checker{ConflictBudget: 10}, 100},
		{"fallback", Checker{ConflictBudget: 10, Config: FallbackConfig}, 4000},
	} {
		if res, _ := c.leg.Check(f); res != Unknown {
			t.Fatalf("%s leg gave %v, want Unknown", c.name, res)
		}
		if got := c.leg.LastConflicts; got < c.want || got >= 2*c.want {
			t.Fatalf("%s leg spent %d conflicts, want one restart round of %d", c.name, got, c.want)
		}
	}
}

// waitGoroutines requires the goroutine count to come back to baseline.
// A goroutine signals its end before it returns, so it may take a
// moment to disappear.
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

// TestPortfolioCancelDuringRace: raising a leg's Stop while it solves on
// its own goroutine ends the solve with Unknown at any point, blasting
// included, and leaves no goroutine behind.
func TestPortfolioCancelDuringRace(t *testing.T) {
	f := distributivityQuery(10) // far beyond either leg's budget
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		baseline := runtime.NumGoroutine()
		var stop atomic.Bool
		leg := Checker{Config: FallbackConfig, Stop: &stop}
		if i%2 == 0 {
			leg = Checker{Stop: &stop}
		}
		done := make(chan Result)
		go func() {
			res, _ := leg.Check(f)
			done <- res
		}()
		time.Sleep(time.Duration(r.Intn(3000)) * time.Microsecond)
		stop.Store(true)
		if res := <-done; res != Unknown {
			t.Fatalf("cancel %d: a stopped leg decided %v on a query it cannot afford", i, res)
		}
		waitGoroutines(t, fmt.Sprintf("cancel %d", i), baseline)
	}
}
