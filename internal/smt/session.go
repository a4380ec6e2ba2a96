package smt

import (
	"repro/internal/sat"
)

// Session is an incremental satisfiability context: one SAT solver, one
// blaster, many queries. Where Checker builds a fresh CNF per query,
// a Session blasts the shared term DAG exactly once — structurally
// shared subterms (the whole point of the hash-consed Builder) become
// shared circuitry — and distinguishes queries by MiniSat-style
// activation literals solved under assumptions. Learnt clauses carry
// over between queries, so the later queries of a translation-validation
// pair start with everything the earlier ones derived.
//
// Protocol:
//
//	se := NewSession(budget)
//	se.BindVars(inputVars)            // blast the model interface first
//	se.Assert(axioms)                 // unconditional background
//	a1 := se.Activation(query1)       // one literal per query
//	a2 := se.Activation(query2)
//	se.Solve(a1)
//	se.Solve(a2)
type Session struct {
	S *sat.Solver
	B *Blast

	// Queries counts Solve calls; Assumptions counts assumption literals
	// passed across them (the sat.assumptions telemetry feed).
	Queries     int64
	Assumptions int64
}

// NewSession creates an incremental context. conflictBudget caps SAT
// conflicts per Solve call (0 = unlimited).
func NewSession(conflictBudget int64) *Session {
	s := sat.New()
	s.Budget = conflictBudget
	return &Session{S: s, B: NewBlast(s)}
}

// BindVars blasts the given variable terms before anything else, so
// they take the session's lowest SAT variable numbers.
func (se *Session) BindVars(vars []*Term) {
	for _, v := range vars {
		se.B.Bits(v)
	}
}

// Assert adds an unconditional bv1 constraint (shared by every query).
func (se *Session) Assert(t *Term) {
	se.B.AssertTrue(t)
}

// Activation blasts a bv1 term and returns a fresh literal a with
// the guard clause a → t. Solving under assumption a activates the
// query; leaving it unassumed leaves t unconstrained (the guard clause
// is vacuously satisfiable), so other queries are undisturbed.
func (se *Session) Activation(t *Term) sat.Lit {
	if t.W != 1 {
		panic("smt: Activation on non-bv1 term")
	}
	a := sat.MkLit(se.S.NewVar(), false)
	se.S.AddClause(a.Neg(), se.B.Bits(t)[0])
	return a
}

// Solve decides satisfiability of the axioms plus every activated query
// under the given assumptions.
func (se *Session) Solve(assumptions ...sat.Lit) Result {
	se.Queries++
	se.Assumptions += int64(len(assumptions))
	switch se.S.SolveUnderAssumptions(assumptions) {
	case sat.Sat:
		return Sat
	case sat.Unsat:
		return Unsat
	default:
		return Unknown
	}
}

// ModelValue reads an already-blasted term's value from the most recent
// Sat model.
func (se *Session) ModelValue(t *Term) uint64 {
	return se.B.ModelValue(t)
}

// Model extracts values for the given variable terms from the most
// recent Sat model.
func (se *Session) Model(vars []*Term) Model {
	m := make(Model, len(vars))
	for _, v := range vars {
		m[v.Name] = se.B.ModelValue(v)
	}
	return m
}
