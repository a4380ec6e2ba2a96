package sat_test

// The Tseitin-CNF microbenchmark lives in the external test package
// because building the instance needs internal/smt, which imports sat.

import (
	"testing"

	"repro/internal/sat"
)

// BenchmarkSolveBlastedMiter solves the 7-bit blasted miter
// (x+y)² ≠ x²+2xy+y² of TestTrajectoryBlastedMiter from scratch: the
// Tseitin clause shape the TV pipeline produces.
func BenchmarkSolveBlastedMiter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		addBlastedMiter(s, 7)
		if s.Solve() != sat.Unsat {
			b.Fatal("miter not unsat")
		}
	}
}
