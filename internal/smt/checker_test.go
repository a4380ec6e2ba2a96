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

// Tests of a Checker's Stop flag, which internal/tv raises to interrupt
// the monolithic solve once the incremental session has proved a query.
// The schedule that starts, judges and interrupts the solve is tested in
// internal/tv.

// checkerStats are a Checker's Last* fields.
type checkerStats struct {
	conflicts, propagations int64
	vars                    int
}

func statsOf(c *Checker) checkerStats {
	return checkerStats{c.LastConflicts, c.LastPropagations, c.LastVars}
}

// TestCheckerUnsetStopBitIdentity: a Checker with a Stop flag that is
// never raised is byte-identical to a plain Checker.Check — verdict,
// model and effort.
func TestCheckerUnsetStopBitIdentity(t *testing.T) {
	r := rng.New(991)
	for trial := 0; trial < 60; trial++ {
		b := NewBuilder()
		w := 3 + r.Intn(8)
		vars := []*Term{b.Var(w, "x"), b.Var(w, "y")}
		formula := b.Eq(buildRandomTerm(b, r, vars, 3), buildRandomTerm(b, r, vars, 3))

		var plain Checker
		wantRes, wantM := plain.Check(formula)
		stoppable := Checker{Stop: new(atomic.Bool)}
		gotRes, gotM := stoppable.Check(formula)
		if gotRes != wantRes || fmt.Sprint(gotM) != fmt.Sprint(wantM) || statsOf(&stoppable) != statsOf(&plain) {
			t.Fatalf("trial %d: Checker with Stop gave %v %v %+v, plain Checker %v %v %+v",
				trial, gotRes, gotM, statsOf(&stoppable), wantRes, wantM, statsOf(&plain))
		}
	}
}

// distributivityQuery is an Unsat refutation (x*(y+1) != x*y + x) that
// needs a real CDCL proof — hash-consing cannot collapse it. The proof
// costs ~2.5k conflicts at width 6 and roughly squares per added bit.
func distributivityQuery(w int) *Term {
	b := NewBuilder()
	x := b.Var(w, "x")
	y := b.Var(w, "y")
	return b.Ne(
		b.Mul(x, b.Add(y, b.Const(w, 1))),
		b.Add(b.Mul(x, y), x),
	)
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

// TestCheckerStopDuringSolve: raising a Checker's Stop while it solves
// on its own goroutine ends the solve with Unknown at any point,
// blasting included, and leaves no goroutine behind.
func TestCheckerStopDuringSolve(t *testing.T) {
	f := distributivityQuery(10) // far beyond what the test waits for
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		baseline := runtime.NumGoroutine()
		var stop atomic.Bool
		c := Checker{Stop: &stop}
		done := make(chan Result)
		go func() {
			res, _ := c.Check(f)
			done <- res
		}()
		time.Sleep(time.Duration(r.Intn(3000)) * time.Microsecond)
		stop.Store(true)
		if res := <-done; res != Unknown {
			t.Fatalf("cancel %d: a stopped Checker decided %v on a query it cannot afford", i, res)
		}
		waitGoroutines(t, fmt.Sprintf("cancel %d", i), baseline)
	}
}
