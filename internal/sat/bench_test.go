package sat

// Microbenchmarks for the solver hot path, independent of the end-to-end
// campaign harness (run with `make microbench`). The canned instances
// mirror the two shapes the TV pipeline produces: Tseitin-style CNF with
// heavy definition redundancy (BenchmarkSolveBlastedMiter, in
// blast_bench_test.go), and near-phase-transition random 3-SAT.

import (
	"testing"

	"repro/internal/rng"
)

func benchAddRandom3SAT(s *Solver, seed uint64, nVars int, ratio float64) [][]Lit {
	r := rng.New(seed)
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	clauses := randomCNF(r, nVars, int(ratio*float64(nVars)))
	for _, cl := range clauses {
		s.AddClause(cl...)
	}
	return clauses
}

func BenchmarkSolveRandom3SAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		benchAddRandom3SAT(s, uint64(i), 120, 4.2)
		s.Solve()
	}
}

// BenchmarkSolveIncrementalAssumptions measures the incremental
// protocol: one shared solver, many assumption-gated queries, learnt
// clauses retained throughout.
func BenchmarkSolveIncrementalAssumptions(b *testing.B) {
	s := New()
	benchAddRandom3SAT(s, 7, 140, 4.0)
	acts := make([]Lit, 8)
	r := rng.New(99)
	for i := range acts {
		v := s.NewVar()
		acts[i] = MkLit(v, false)
		// Tie each activation literal to a random implication.
		s.AddClause(acts[i].Neg(), MkLit(r.Intn(140), r.Bool()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SolveUnderAssumptions(acts[i%len(acts) : i%len(acts)+1])
	}
}

// BenchmarkSolveFreshPerQuery is the baseline the incremental benchmark
// is compared against: a brand-new solver and CNF per query.
func BenchmarkSolveFreshPerQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		benchAddRandom3SAT(s, 7, 140, 4.0)
		s.Solve()
	}
}
