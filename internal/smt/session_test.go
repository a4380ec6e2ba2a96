package smt

import (
	"testing"

	"repro/internal/apint"
	"repro/internal/rng"
	"repro/internal/sat"
)

// TestSessionMatchesChecker cross-checks the incremental Session against
// the one-shot Checker on batches of related queries over a shared term
// DAG: verdicts must agree, and Sat models must satisfy the axioms plus
// the activated query.
func TestSessionMatchesChecker(t *testing.T) {
	r := rng.New(4321)
	for trial := 0; trial < 60; trial++ {
		b := NewBuilder()
		w := 3 + r.Intn(8)
		vars := []*Term{b.Var(w, "x"), b.Var(w, "y")}
		axiom := b.Ne(vars[0], b.Const(w, 0)) // x != 0
		queries := []*Term{
			b.Eq(buildRandomTerm(b, r, vars, 3), buildRandomTerm(b, r, vars, 3)),
			b.Ne(buildRandomTerm(b, r, vars, 3), vars[1]),
			b.Ult(buildRandomTerm(b, r, vars, 2), buildRandomTerm(b, r, vars, 2)),
		}

		se := NewSession(0)
		se.BindVars(vars)
		se.Assert(axiom)
		acts := make([]sat.Lit, len(queries))
		for i, q := range queries {
			acts[i] = se.Activation(q)
		}
		for qi, q := range queries {
			var c Checker
			want, _ := c.Check(b.And(axiom, q))
			got := se.Solve(acts[qi])
			if got != want {
				t.Fatalf("trial=%d query=%d: session=%v checker=%v", trial, qi, got, want)
			}
			if got == Sat {
				m := se.Model(vars)
				full := b.And(axiom, q)
				if Eval(full, map[string]uint64(m)) != 1 {
					t.Fatalf("trial=%d query=%d: session model %v does not satisfy %s",
						trial, qi, m, full)
				}
				for _, v := range vars {
					if m[v.Name]&^apint.Mask(w) != 0 {
						t.Fatalf("model value exceeds width: %v", m)
					}
				}
			}
		}
	}
}

// TestSessionActivationIsolation: an unassumed activation must not
// constrain the formula — query A's verdict is independent of query B
// having been installed.
func TestSessionActivationIsolation(t *testing.T) {
	b := NewBuilder()
	x := b.Var(8, "x")
	se := NewSession(0)
	se.BindVars([]*Term{x})
	aSat := se.Activation(b.Eq(x, b.Const(8, 42)))
	aUnsat := se.Activation(b.Ne(x, x))
	if got := se.Solve(aSat); got != Sat {
		t.Fatalf("satisfiable activation: %v", got)
	}
	if got := se.ModelValue(x); got != 42 {
		t.Fatalf("model x = %d, want 42", got)
	}
	if got := se.Solve(aUnsat); got != Unsat {
		t.Fatalf("unsatisfiable activation: %v", got)
	}
	// The unsat activation must not have poisoned the shared context.
	if got := se.Solve(aSat); got != Sat {
		t.Fatalf("re-solve of satisfiable activation after unsat one: %v", got)
	}
	if se.Queries != 3 || se.Assumptions != 3 {
		t.Fatalf("stats: queries=%d assumptions=%d, want 3/3", se.Queries, se.Assumptions)
	}
}
