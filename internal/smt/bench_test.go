package smt

// Microbenchmarks for the blast/solve hot path (run with
// `make microbench`). The Session-vs-Checker pair quantifies what
// blast-once + learnt-clause retention buys on a batch of related
// queries — the exact shape of tv.Verify's refinement classes.

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sat"
)

func benchQueries(b *Builder, r *rng.Rand, w int) ([]*Term, []*Term) {
	vars := []*Term{b.Var(w, "x"), b.Var(w, "y"), b.Var(w, "z")}
	shared := buildRandomTerm(b, r, vars, 4)
	queries := []*Term{
		b.Eq(shared, buildRandomTerm(b, r, vars, 3)),
		b.Ult(shared, buildRandomTerm(b, r, vars, 2)),
		b.Ne(b.Add(shared, vars[0]), vars[1]),
		b.Eq(b.Mul(shared, vars[2]), buildRandomTerm(b, r, vars, 2)),
	}
	return vars, queries
}

func BenchmarkCheckerFourQueries(bm *testing.B) {
	b := NewBuilder()
	r := rng.New(5)
	_, queries := benchQueries(b, r, 16)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		for _, q := range queries {
			var c Checker
			c.Check(q)
		}
	}
}

func BenchmarkSessionFourQueries(bm *testing.B) {
	b := NewBuilder()
	r := rng.New(5)
	vars, queries := benchQueries(b, r, 16)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		se := NewSession(0)
		se.BindVars(vars)
		acts := make([]sat.Lit, len(queries))
		for j, q := range queries {
			acts[j] = se.Activation(q)
		}
		for _, a := range acts {
			se.Solve(a)
		}
	}
}

// BenchmarkBlastSharedDAG measures pure Tseitin lowering of a deep
// shared DAG (no solving), the per-query cost the Session amortizes.
func BenchmarkBlastSharedDAG(bm *testing.B) {
	b := NewBuilder()
	r := rng.New(17)
	vars := []*Term{b.Var(32, "x"), b.Var(32, "y"), b.Var(32, "z")}
	term := buildRandomTerm(b, r, vars, 6)
	root := b.Eq(term, b.Const(term.W, 0))
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		s := sat.New()
		bl := NewBlast(s)
		bl.Bits(root)
	}
}

// BenchmarkDigest measures the verdict cache's key on a query shaped like
// the budget-exhausting tail's: 32-bit udiv/urem pairs under
// division-by-zero guards, joined over a few path pairs. The cache saves
// a solve of about a second on each hit, so the digest must stay far
// below that.
func BenchmarkDigest(bm *testing.B) {
	b := NewBuilder()
	x, y, z := b.Var(32, "x"), b.Var(32, "y"), b.Var(32, "z")
	zero := b.Const(32, 0)
	query := b.Bool(false)
	for i := uint64(1); i <= 4; i++ {
		d := b.Or(y, b.Const(32, i))
		q, r := b.UDiv(x, d), b.URem(x, d)
		tq, tr := b.UDiv(b.Add(x, z), d), b.URem(b.Add(x, z), d)
		guard := b.And(b.Ne(d, zero), b.Ult(z, b.Const(32, i)))
		viol := b.Or(b.Ne(q, tq), b.Ne(r, tr))
		query = b.Or(query, b.And(guard, viol))
	}
	axiom := b.Ult(y, b.Const(32, 1<<20))
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		digestSink = Digest(query, axiom)
	}
}

// digestSink keeps BenchmarkDigest's call from being optimized away.
var digestSink [32]byte
