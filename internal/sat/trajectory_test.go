package sat_test

// Search-trajectory pins. Each case asserts the exact Conflicts,
// Decisions and Propagations of a fixed search, so any change to the
// solver kernel that alters the search — visit order in propagate, the
// learnt-clause deletion policy, activity arithmetic, the restart
// schedule — fails here loudly instead of surfacing as a drifted census
// in a campaign run. A change that means to alter the search re-records
// these numbers and says why.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sat"
	"repro/internal/smt"
)

type trajectory struct {
	Conflicts, Decisions, Propagations int64
}

func (tr trajectory) String() string {
	return fmt.Sprintf("{%d, %d, %d}", tr.Conflicts, tr.Decisions, tr.Propagations)
}

func countersOf(s *sat.Solver) trajectory {
	return trajectory{s.Conflicts, s.Decisions, s.Propagations}
}

func checkTrajectory(t *testing.T, name string, s *sat.Solver, want trajectory) {
	t.Helper()
	if got := countersOf(s); got != want {
		t.Errorf("%s: trajectory %v, want %v", name, got, want)
	}
}

func addRandom3SAT(s *sat.Solver, seed uint64, nVars, nClauses int) {
	r := rng.New(seed)
	for s.NumVars() < nVars {
		s.NewVar()
	}
	for i := 0; i < nClauses; i++ {
		s.AddClause(
			sat.MkLit(r.Intn(nVars), r.Bool()),
			sat.MkLit(r.Intn(nVars), r.Bool()),
			sat.MkLit(r.Intn(nVars), r.Bool()))
	}
}

// addPHP adds PHP(n+1, n): n+1 pigeons, n holes, unsatisfiable.
func addPHP(s *sat.Solver, n int) {
	base := s.NumVars()
	for i := 0; i < (n+1)*n; i++ {
		s.NewVar()
	}
	v := func(p, h int) int { return base + p*n + h }
	for p := 0; p <= n; p++ {
		cl := make([]sat.Lit, n)
		for h := range cl {
			cl[h] = sat.MkLit(v(p, h), false)
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(sat.MkLit(v(p1, h), true), sat.MkLit(v(p2, h), true))
			}
		}
	}
}

// TestTrajectoryRandom3SAT pins a phase-transition instance that learns
// well over a thousand clauses, so reduceDB runs repeatedly and the clause
// arena is compacted along the way.
func TestTrajectoryRandom3SAT(t *testing.T) {
	s := sat.New()
	addRandom3SAT(s, 2024, 200, 852)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("verdict %v, want unsat", got)
	}
	checkTrajectory(t, "random3sat", s, trajectory{7004, 8409, 259253})
}

// TestTrajectoryPortfolioConfigs pins PHP(8,7) under the canonical
// configuration and the fallback leg's.
func TestTrajectoryPortfolioConfigs(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  sat.Config
		want trajectory
	}{
		{"canonical", sat.Config{}, trajectory{3717, 4519, 42796}},
		{"fallback", smt.FallbackConfig, trajectory{2868, 3419, 35407}},
	} {
		s := sat.NewWith(c.cfg)
		addPHP(s, 7)
		if got := s.Solve(); got != sat.Unsat {
			t.Fatalf("%s: verdict %v, want unsat", c.name, got)
		}
		checkTrajectory(t, fmt.Sprintf("%s (%+v)", c.name, c.cfg), s, c.want)
	}
}

// TestTrajectoryIncremental pins one solver through the incremental
// protocol: assumption solves over activation literals, a
// budget-exhausted call, then reuse with the budget lifted. The verdict
// sequence and the final-conflict sizes are pinned alongside the
// counters.
func TestTrajectoryIncremental(t *testing.T) {
	s := sat.New()
	const nVars = 150
	addRandom3SAT(s, 77, nVars, 600)
	r := rng.New(5)
	acts := make([]sat.Lit, 10)
	for i := range acts {
		acts[i] = sat.MkLit(s.NewVar(), false)
		for j := 0; j < 6; j++ {
			s.AddClause(acts[i].Neg(), sat.MkLit(r.Intn(nVars), r.Bool()), sat.MkLit(r.Intn(nVars), r.Bool()))
		}
	}
	var log []string
	solve := func(budget int64, assumps ...sat.Lit) {
		s.Budget = budget
		res := s.Solve(assumps...)
		log = append(log, fmt.Sprintf("%v/%d", res, len(s.Conflict())))
	}
	for i := range acts {
		solve(0, acts[i])
	}
	solve(0, acts...)
	solve(3, acts[:5]...)
	solve(0, acts[:5]...)
	solve(0, acts[5:]...)
	for i := 0; i+2 < len(acts); i++ {
		solve(0, acts[i], acts[i+1].Neg(), acts[i+2])
	}
	solve(0)
	want := "sat/0 sat/0 sat/0 sat/0 sat/0 sat/0 sat/0 sat/0 sat/0 sat/0 " +
		"unsat/10 unknown/0 unsat/5 unsat/5 " +
		"sat/0 sat/0 sat/0 sat/0 sat/0 unsat/2 sat/0 sat/0 sat/0"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("verdicts %q, want %q", got, want)
	}
	checkTrajectory(t, "incremental", s, trajectory{8731, 11085, 294297})
}

// addBlastedMiter bit-blasts the w-bit miter (x+y)² ≠ x²+2xy+y² onto s
// through smt.Blast: the Tseitin shape the TV pipeline hands the solver,
// rich in binary clauses (624 of 1648 at 7 bits). It is unsatisfiable.
func addBlastedMiter(s *sat.Solver, w int) {
	b := smt.NewBuilder()
	x, y := b.Var(w, "x"), b.Var(w, "y")
	sum := b.Add(x, y)
	lhs := b.Mul(sum, sum)
	rhs := b.Add(b.Add(b.Mul(x, x), b.Mul(b.Const(w, 2), b.Mul(x, y))), b.Mul(y, y))
	smt.NewBlast(s).AssertTrue(b.Ne(lhs, rhs))
}

// TestTrajectoryBlastedMiter pins a blasted arithmetic miter under the
// canonical configuration and the fallback leg's, and one canonical run
// that exhausts its conflict budget.
func TestTrajectoryBlastedMiter(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    sat.Config
		width  int
		budget int64
		res    sat.Result
		want   trajectory
	}{
		{"canonical", sat.Config{}, 7, 0, sat.Unsat, trajectory{7702, 8917, 1181952}},
		{"fallback", smt.FallbackConfig, 7, 0, sat.Unsat, trajectory{4811, 5274, 732214}},
		{"budget", sat.Config{}, 8, 1000, sat.Unknown, trajectory{1203, 1747, 191844}},
	} {
		s := sat.NewWith(c.cfg)
		s.Budget = c.budget
		addBlastedMiter(s, c.width)
		if got := s.Solve(); got != c.res {
			t.Fatalf("%s: verdict %v, want %v", c.name, got, c.res)
		}
		checkTrajectory(t, c.name, s, c.want)
	}
}
