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
//	se := NewSession(budget, preprocess)
//	se.BindVars(inputVars)            // freeze model/query interface
//	se.Assert(axioms)                 // unconditional background
//	a1 := se.Activation(query1)       // one literal per query
//	a2 := se.Activation(query2)
//	se.Solve(a1)                      // preprocesses lazily, then solves
//	se.Solve(a2)
//
// With preprocessing enabled, every Assert/Activation/BindVars call must
// precede the first Solve: preprocessing may eliminate internal gate
// variables, and the underlying solver panics if a later clause mentions
// an eliminated variable. The activation literals and bound variable
// bits are frozen and survive elimination.
type Session struct {
	S *sat.Solver
	B *Blast

	preprocess bool
	prepDone   bool

	// Queries counts Solve calls; Assumptions counts assumption literals
	// passed across them (the sat.assumptions telemetry feed).
	Queries     int64
	Assumptions int64
}

// preprocessMinClauses gates CNF preprocessing by blasted problem size.
// BVE's resolution scan has a fixed cost that swamps the solve time of
// small queries; on the campaign's query mix clause counts are sharply
// bimodal (median ~100, hard tail 36k+), so preprocessing below this
// floor only adds overhead. Verdicts are unaffected either way —
// preprocessing is equisatisfiable — this is purely a cost policy.
const preprocessMinClauses = 10000

// NewSession creates an incremental context. conflictBudget caps SAT
// conflicts per Solve call (0 = unlimited); preprocess enables the
// SatELite-lite CNF preprocessor before the first solve.
func NewSession(conflictBudget int64, preprocess bool) *Session {
	s := sat.New()
	s.Budget = conflictBudget
	return &Session{S: s, B: NewBlast(s), preprocess: preprocess}
}

// BindVars blasts the given variable terms and freezes their bits, so
// they remain directly readable from models and usable in assumptions
// after preprocessing.
func (se *Session) BindVars(vars []*Term) {
	for _, v := range vars {
		for _, l := range se.B.Bits(v) {
			se.S.Freeze(l.Var())
		}
	}
}

// Assert adds an unconditional bv1 constraint (shared by every query).
func (se *Session) Assert(t *Term) {
	se.B.AssertTrue(t)
}

// Activation blasts a bv1 term and returns a fresh frozen literal a with
// the guard clause a → t. Solving under assumption a activates the
// query; leaving it unassumed leaves t unconstrained (the guard clause
// is vacuously satisfiable), so other queries are undisturbed.
func (se *Session) Activation(t *Term) sat.Lit {
	if t.W != 1 {
		panic("smt: Activation on non-bv1 term")
	}
	a := sat.MkLit(se.S.NewVar(), false)
	se.S.Freeze(a.Var())
	se.S.AddClause(a.Neg(), se.B.Bits(t)[0])
	return a
}

// Solve decides satisfiability of the axioms plus every activated query,
// running the CNF preprocessor first if the session was configured with
// it (once, lazily, so it sees the complete clause set).
func (se *Session) Solve(assumptions ...sat.Lit) Result {
	if se.preprocess && !se.prepDone {
		se.prepDone = true
		if se.S.NumClauses() >= preprocessMinClauses {
			se.S.Preprocess()
		}
	}
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
// Sat model (eliminated bits are reconstructed by the solver).
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
