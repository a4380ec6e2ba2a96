package smt

import "repro/internal/sat"

// Result mirrors the SAT outcome at the theory level.
type Result int

// Check outcomes.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Model is a satisfying assignment for the variables of a checked formula.
type Model map[string]uint64

// Checker bundles a SAT solver and blaster for one satisfiability query.
// Queries in the fuzzing loop are independent, so each Check builds a
// fresh context; the hash-consed Builder persists across queries and keeps
// structural sharing.
type Checker struct {
	// ConflictBudget caps SAT conflicts per query (0 = unlimited). The
	// fuzzing loop sets a budget so a pathological mutant cannot stall the
	// campaign — the equivalent of Alive2's solver timeout. Like
	// sat.Solver.Budget it is checked at restart boundaries, so the solve
	// may overshoot it by up to one restart round.
	ConflictBudget int64

	// Stats from the most recent Check.
	LastConflicts    int64
	LastPropagations int64
	LastVars         int
}

// Check decides satisfiability of the bv1 term formula. On Sat it returns
// a model assigning every variable reachable from the formula.
func (c *Checker) Check(formula *Term) (Result, Model) {
	if formula.W != 1 {
		panic("smt: Check on non-bv1 term")
	}
	if formula.IsTrue() {
		return Sat, Model{}
	}
	if formula.IsFalse() {
		return Unsat, nil
	}
	s := sat.New()
	s.Budget = c.ConflictBudget
	bl := NewBlast(s)
	vars, estimate := scan(formula)
	s.Reserve(estimate)
	// Blast variables first so their literals exist for model extraction.
	for _, v := range vars {
		bl.Bits(v)
	}
	bl.AssertTrue(formula)
	res := s.Solve()
	c.LastConflicts = s.Conflicts
	c.LastPropagations = s.Propagations
	c.LastVars = s.NumVars()
	switch res {
	case sat.Sat:
		m := make(Model, len(vars))
		for _, v := range vars {
			m[v.Name] = bl.ModelValue(v)
		}
		return Sat, m
	case sat.Unsat:
		return Unsat, nil
	default:
		return Unknown, nil
	}
}
