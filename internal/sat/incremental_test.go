package sat

import (
	"testing"

	"repro/internal/rng"
)

func addPigeonhole(s *Solver, n int) {
	vars := make([][]int, n+1)
	for p := range vars {
		vars[p] = make([]int, n)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		cl := make([]Lit, n)
		for h := 0; h < n; h++ {
			cl[h] = lit(vars[p][h])
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(nlit(vars[p1][h]), nlit(vars[p2][h]))
			}
		}
	}
}

// TestReuseAfterBudgetExhaustion is the regression test for the
// incremental-solving contract: a solver that returned Unknown because
// its conflict Budget ran out must, on the same instance with a larger
// budget, still produce the correct verdict rather than a stale Unknown
// or a corrupted state.
func TestReuseAfterBudgetExhaustion(t *testing.T) {
	s := New()
	addPigeonhole(s, 8)
	s.Budget = 50
	if got := s.Solve(); got != Unknown {
		t.Fatalf("PHP(9,8) with budget 50: %v, want unknown (raise the hardness if CDCL got this fast)", got)
	}
	s.Budget = 0
	if got := s.Solve(); got != Unsat {
		t.Fatalf("re-solve with unlimited budget: %v, want unsat", got)
	}
	// And the solver must still answer fresh satisfiable queries: new
	// variables + assumptions after the Unsat.
	v := s.NewVar()
	s.AddClause(lit(v)) // formula already unsat; stays unsat
	if got := s.Solve(); got != Unsat {
		t.Fatalf("post-unsat re-solve: %v, want unsat", got)
	}
}

func TestBudgetExhaustionThenSat(t *testing.T) {
	// A satisfiable instance hard enough to exhaust a tiny budget:
	// PHP(8,8) (one pigeon per hole is fine) plus XOR chains to create
	// conflicts. Simpler: random 3-SAT near the phase transition.
	r := rng.New(9)
	s := New()
	const nVars = 60
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	var clauses [][]Lit
	for i := 0; i < int(4.1*nVars); i++ {
		cl := []Lit{
			MkLit(r.Intn(nVars), r.Bool()),
			MkLit(r.Intn(nVars), r.Bool()),
			MkLit(r.Intn(nVars), r.Bool()),
		}
		clauses = append(clauses, cl)
		s.AddClause(cl...)
	}
	s.Budget = 1
	first := s.Solve()
	s.Budget = 0
	final := s.Solve()
	if final == Unknown {
		t.Fatal("unlimited budget returned unknown")
	}
	if first != Unknown && first != final {
		t.Fatalf("budgeted result %v disagrees with final %v", first, final)
	}
	if final == Sat {
		for ci, cl := range clauses {
			ok := false
			for _, l := range cl {
				if s.Value(l.Var()) != l.Sign() {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("model violates clause %d", ci)
			}
		}
	}
}

// TestFinalConflict checks MiniSat-style final-conflict extraction: after
// an assumption-Unsat, Conflict() must return a subset of the assumptions
// that is itself inconsistent with the formula.
func TestFinalConflict(t *testing.T) {
	s := New()
	a, b, c, d := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(nlit(a), lit(b)) // a → b
	s.AddClause(nlit(b), lit(c)) // b → c
	_ = d

	assumps := []Lit{lit(a), lit(d), nlit(c)} // a ∧ d ∧ ¬c: a→c contradicts ¬c
	if got := s.SolveUnderAssumptions(assumps); got != Unsat {
		t.Fatalf("SolveUnderAssumptions = %v, want unsat", got)
	}
	confl := s.Conflict()
	if len(confl) == 0 {
		t.Fatal("empty final conflict for assumption-unsat")
	}
	inAssumps := func(l Lit) bool {
		for _, a := range assumps {
			if a == l {
				return true
			}
		}
		return false
	}
	for _, l := range confl {
		if !inAssumps(l) {
			t.Fatalf("conflict literal %v is not one of the assumptions", l)
		}
		if l == lit(d) {
			t.Error("irrelevant assumption d appears in the final conflict")
		}
	}
	// The extracted subset must itself be unsat.
	core := append([]Lit(nil), confl...)
	if got := s.SolveUnderAssumptions(core); got != Unsat {
		t.Fatalf("conflict core is not unsat: %v", got)
	}
	// And the solver stays reusable.
	if got := s.Solve(); got != Sat {
		t.Fatalf("unassumed re-solve: %v, want sat", got)
	}
}

func TestFinalConflictEmptyOnGlobalUnsat(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(lit(a))
	s.AddClause(nlit(a))
	if got := s.SolveUnderAssumptions([]Lit{lit(b)}); got != Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
	if len(s.Conflict()) != 0 {
		t.Fatalf("global unsat should yield an empty conflict, got %v", s.Conflict())
	}
}

// TestLearntRetentionAcrossCalls: solving the same hard instance twice on
// one solver must be cheaper the second time because learnt clauses are
// retained — the incremental-TV protocol's whole reason to share solvers.
func TestLearntRetentionAcrossCalls(t *testing.T) {
	s := New()
	addPigeonhole(s, 6)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("first solve: %v", got)
	}
	before := s.Conflicts
	if got := s.Solve(); got != Unsat {
		t.Fatalf("second solve: %v", got)
	}
	second := s.Conflicts - before
	if second > before/2 {
		t.Fatalf("second solve used %d conflicts vs %d on the first; learnt clauses not retained?", second, before)
	}
}

func randomCNF(r *rng.Rand, nVars, nClauses int) [][]Lit {
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		cl := make([]Lit, 3)
		for j := range cl {
			cl[j] = MkLit(r.Intn(nVars), r.Bool())
		}
		clauses[i] = cl
	}
	return clauses
}

func bruteForce(nVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, cl := range clauses {
			cOK := false
			for _, l := range cl {
				if (m>>uint(l.Var())&1 == 1) != l.Sign() {
					cOK = true
					break
				}
			}
			if !cOK {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
