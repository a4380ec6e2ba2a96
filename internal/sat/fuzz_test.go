package sat

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// FuzzIncrementalAgainstBruteForce drives one solver through a sequence
// of calls decoded from the input — clause additions, assumption solves
// under tight conflict budgets, forced learnt-clause deletion with arena
// compaction — over at most 12 variables. It checks the clause arena's
// bookkeeping (checkArena) after every call, and every answer against
// exhaustive enumeration: a decided verdict must be right, a Sat model
// must satisfy every clause and assumption, and an Unsat final conflict
// must consist of assumptions and be unsatisfiable with the clauses on
// its own.
func FuzzIncrementalAgainstBruteForce(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		r := rng.New(seed)
		data := make([]byte, 64+r.Intn(192))
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nVars := 1 + next()%12
		lit := func() Lit {
			b := next()
			return MkLit(b>>1%nVars, b&1 == 1)
		}
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		addClause := func() {
			cl := make([]Lit, 1+next()%4)
			for i := range cl {
				cl[i] = lit()
			}
			clauses = append(clauses, cl)
			s.AddClause(cl...)
			checkArena(t, s)
		}
		for n := next() % 40; n > 0; n-- {
			addClause()
		}
		for call := 0; len(data) > 0 && call < 32; call++ {
			switch op := next(); op % 8 {
			case 0:
				addClause()
				continue
			case 1:
				// Deleting learnts and compacting at level 0 must not change
				// any later answer's correctness.
				s.reduceDB()
				checkArena(t, s)
				s.garbageCollect()
				checkArena(t, s)
				continue
			case 2, 3:
				s.Budget = int64(op / 8 % 4)
			default:
				s.Budget = 0
			}
			assumps := make([]Lit, next()%5)
			for i := range assumps {
				assumps[i] = lit()
			}
			res := s.Solve(assumps...)
			checkArena(t, s)
			withAssumps := slices.Clone(clauses)
			for _, a := range assumps {
				withAssumps = append(withAssumps, []Lit{a})
			}
			sat := bruteForce(nVars, withAssumps)
			switch res {
			case Unknown:
				if s.Budget == 0 {
					t.Fatalf("call %d: Unknown without a budget", call)
				}
			case Sat:
				if !sat {
					t.Fatalf("call %d: Sat, brute force says unsat", call)
				}
				for ci, cl := range withAssumps {
					if !slices.ContainsFunc(cl, func(l Lit) bool { return s.Value(l.Var()) != l.Sign() }) {
						t.Fatalf("call %d: model violates clause or assumption %d %v", call, ci, cl)
					}
				}
			case Unsat:
				if sat {
					t.Fatalf("call %d: Unsat, brute force says sat", call)
				}
				core := slices.Clone(clauses)
				for _, a := range s.Conflict() {
					if !slices.Contains(assumps, a) {
						t.Fatalf("call %d: final conflict %v has %d, not an assumption of %v", call, s.Conflict(), a, assumps)
					}
					core = append(core, []Lit{a})
				}
				if bruteForce(nVars, core) {
					t.Fatalf("call %d: final conflict %v is satisfiable with the clauses", call, s.Conflict())
				}
			}
		}
	})
}
