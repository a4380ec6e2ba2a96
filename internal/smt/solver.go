package smt

import (
	"sync/atomic"

	"repro/internal/sat"
)

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
	// Config selects the solver's search heuristics; the zero value is
	// the canonical configuration.
	Config sat.Config
	// Stop, when non-nil, interrupts the solve (sat.Solver.Stop): Check
	// then returns Unknown, and neither that result nor the statistics
	// may be counted.
	Stop *atomic.Bool

	// Stats from the most recent Check.
	LastConflicts    int64
	LastPropagations int64
	LastVars         int
}

// FallbackConfig is the search configuration of internal/tv's fallback
// leg, which re-solves a query the canonical configuration abandoned at
// its conflict budget: a restart unit forty times the canonical one and a
// slower activity decay. Its first restart round alone runs 4000
// conflicts, past any smaller budget (docs/PERFORMANCE.md Layer 6).
var FallbackConfig = sat.Config{RestartBase: 4000, VarDecay: 0.995}

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
	s := sat.NewWith(c.Config)
	s.Budget = c.ConflictBudget
	s.Stop = c.Stop
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
