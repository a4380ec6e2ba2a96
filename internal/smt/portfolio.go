package smt

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sat"
)

// Portfolio decides one satisfiability query by racing k solver
// configurations (restart/activity/phase variants, sat.Config) under a
// deterministic schedule. CDCL runtime is notoriously sensitive to those
// heuristics: a query one configuration abandons at its conflict budget
// is often decided quickly by another, so a small portfolio rescues
// budget-bound queries the single canonical solver cannot afford.
//
// Determinism is the design constraint: verdicts, models, and effort
// counters must be pure functions of (formula, configs, budget) at any
// worker count, so the race is judged in *virtual time*, never against
// the wall clock. The schedule is second-chance, adjudicated by fixed
// priority:
//
//   - Configs[0] is the canonical configuration. Its leg runs to its own
//     conclusion first, alone, exactly as sat.SolveUnderAssumptions
//     would run it (the sat.Stepper preserves the uninterrupted
//     trajectory bit for bit), so whenever the canonical leg decides —
//     the overwhelming majority of queries — the result, including the
//     Sat model, is byte-identical to a non-portfolio solve and the
//     alternates are never even blasted.
//   - Only on a canonical budget Unknown do the alternates engage, each
//     on its own goroutine with its own solver and blaster. The verdict
//     is the one a round-robin schedule on one goroutine would reach:
//     round r of alternate j (0-based, n alternates) sorts at r*n + j,
//     the lowest-sorting decision ends the race, and effort is counted
//     up to it. A leg's trajectory depends on nothing but its own
//     configuration (Terms are immutable), so goroutine timing can only
//     waste CPU on rounds past that point, never change a number.
//   - An alternate may contribute exactly one thing: an Unsat proof,
//     which is config-independent ground truth. An alternate Sat also
//     ends the race, with the canonical Unknown standing:
//     satisfiability rules out any Unsat proof, and a non-canonical
//     model cannot replace the canonical one.
//
// The only way a portfolio verdict can differ from the canonical
// verdict is therefore Unknown→Unsat — the same strictly one-directional
// budget-rescue divergence the incremental session and static rung are
// allowed (internal/tv Options.Incremental).
type Portfolio struct {
	// Configs are the racing solver configurations; Configs[0] must be
	// the canonical one (zero sat.Config). Fewer than two entries make
	// Check equivalent to Checker.Check.
	Configs []sat.Config
	// ConflictBudget caps SAT conflicts on the canonical leg (0 =
	// unlimited); its budget boundary is checked exactly as
	// sat.SolveUnderAssumptions checks it, preserving Unknown verdicts.
	ConflictBudget int64
	// AlternateBudget caps conflicts per alternate leg (0 = same as
	// ConflictBudget). On the campaign slice the observed rescue
	// trajectories are comparable in length to the canonical budget, so
	// callers keep this at the full ConflictBudget; it exists so the
	// race's worst case — every leg exhausted on a genuinely hard
	// query — can be bounded separately when the ladder grows.
	AlternateBudget int64

	// Stats from the most recent Check. LastConflicts/LastPropagations
	// sum over every raced leg up to the deciding round of the virtual
	// schedule (the honest cost of the race, independent of how far the
	// goroutines ran past it); LastVars is the canonical leg's CNF size.
	LastConflicts    int64
	LastPropagations int64
	LastVars         int
	// LastWinner is the index of the configuration whose result became
	// the verdict (-1 when the query was decided structurally or every
	// leg exhausted its budget). LastRaced reports whether alternates
	// engaged at all.
	LastWinner int
	LastRaced  bool
}

// PortfolioConfigs returns the standard k-leg configuration ladder:
// Configs[0] is always the canonical zero configuration, followed by the
// alternates in fixed order, so any prefix of the ladder is itself a
// valid portfolio and the winner index has a stable meaning at every k.
// The alternates were tuned on the campaign slice's budget-bound
// queries (docs/PERFORMANCE.md): long-run/slow-decay regimes first —
// empirically the only ones that cracked Unsat proofs the canonical
// schedule could not afford — then phase-saving and phase-polarity
// variants, then a rapid-restart probe.
func PortfolioConfigs(k int) []sat.Config {
	ladder := []sat.Config{
		{}, // canonical
		{RestartBase: 1000, VarDecay: 0.99},
		{RestartBase: 4000, VarDecay: 0.995},
		{RestartBase: 2000, VarDecay: 0.99, NoPhaseSaving: true},
		{RestartBase: 1000, VarDecay: 0.99, PhaseTrue: true},
		{RestartBase: 500, VarDecay: 0.97, ClauseDecay: 0.9995},
	}
	if k < 1 {
		k = 1
	}
	if k > len(ladder) {
		k = len(ladder)
	}
	return ladder[:k]
}

// leg is one racing solver instance.
type leg struct {
	s  *sat.Solver
	bl *Blast
	st *sat.Stepper
}

func newLeg(cfg sat.Config, formula *Term, vars []*Term) *leg {
	s := sat.NewWith(cfg)
	bl := NewBlast(s)
	// Blast variables first, mirroring Checker.Check's construction order
	// so the canonical leg's variable numbering — and hence its search —
	// is identical to a non-portfolio solve.
	for _, v := range vars {
		bl.Bits(v)
	}
	bl.AssertTrue(formula)
	return &leg{s: s, bl: bl, st: s.Stepper(nil)}
}

// step advances the leg one restart round. It reports the round's
// result and whether the leg is still undecided within its budget (the
// same post-round boundary sat.SolveUnderAssumptions uses).
func (l *leg) step(budget int64) (sat.Result, bool) {
	if r := l.st.Step(); r != sat.Unknown {
		return r, false
	}
	return sat.Unknown, budget <= 0 || l.st.Conflicts() <= budget
}

// effort is a leg's cumulative solver effort at a round boundary.
type effort struct{ conflicts, propagations int64 }

func (l *leg) effort() effort { return effort{l.s.Conflicts, l.s.Propagations} }

// altRun is what one alternate leg leaves behind for adjudication.
type altRun struct {
	// rounds[0] is the effort after construction and rounds[r+1] the
	// effort after round r.
	rounds []effort
	// res is the verdict of the leg's last round (Unknown when it ran
	// out of budget or stopped at the cut).
	res sat.Result
}

// Check decides satisfiability of the bv1 term formula. On Sat it
// returns the canonical leg's model, assigning every variable reachable
// from the formula — byte-identical to Checker.Check's model.
func (p *Portfolio) Check(formula *Term) (Result, Model) {
	p.LastConflicts, p.LastPropagations, p.LastVars = 0, 0, 0
	p.LastWinner, p.LastRaced = -1, false
	if formula.W != 1 {
		panic("smt: Check on non-bv1 term")
	}
	if formula.IsTrue() {
		return Sat, Model{}
	}
	if formula.IsFalse() {
		return Unsat, nil
	}

	vars := Vars(formula)
	canonCfg := sat.Config{}
	if len(p.Configs) > 0 {
		canonCfg = p.Configs[0]
	}
	canon := newLeg(canonCfg, formula, vars)
	p.LastVars = canon.s.NumVars()

	// Phase 1: the canonical leg runs to its own conclusion, exactly as
	// a lone solver would — every decided query returns here without
	// paying a cent for the portfolio.
	for {
		res, running := canon.step(p.ConflictBudget)
		p.LastConflicts, p.LastPropagations = canon.s.Conflicts, canon.s.Propagations
		switch res {
		case sat.Sat:
			p.LastWinner = 0
			m := make(Model, len(vars))
			for _, v := range vars {
				m[v.Name] = canon.bl.ModelValue(v)
			}
			return Sat, m
		case sat.Unsat:
			p.LastWinner = 0
			return Unsat, nil
		}
		if !running {
			break
		}
	}
	if len(p.Configs) < 2 {
		return Unknown, nil
	}

	// Phase 2 — the race proper, entered only on a canonical budget
	// Unknown: the alternates hunt the Unsat proof the canonical
	// schedule could not afford. An alternate Sat ends the race:
	// satisfiability rules out any Unsat proof, and a non-canonical
	// model cannot upgrade the canonical Unknown.
	altBudget := p.AlternateBudget
	if altBudget == 0 {
		altBudget = p.ConflictBudget
	}
	p.LastRaced = true
	n := len(p.Configs) - 1
	runs := make([]altRun, n)
	// cut is the lowest key, r*n + j for round r of alternate j, at
	// which a leg has decided so far; no leg starts a round that sorts
	// after it.
	var cut atomic.Int64
	cut.Store(math.MaxInt64)
	var wg sync.WaitGroup
	for j, cfg := range p.Configs[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := newLeg(cfg, formula, vars)
			run := &runs[j]
			run.rounds = append(run.rounds, l.effort())
			for key := int64(j); key <= cut.Load(); key += int64(n) {
				res, running := l.step(altBudget)
				run.rounds = append(run.rounds, l.effort())
				if res != sat.Unknown {
					run.res = res
					// Lower the cut to key, keeping the minimum.
					for c := cut.Load(); key < c && !cut.CompareAndSwap(c, key); c = cut.Load() {
					}
					return
				}
				if !running {
					return
				}
			}
		}()
	}
	wg.Wait()

	// Adjudicate in virtual time. A decision at round r of alternate w
	// ends the round-robin schedule there: alternates up to w have run
	// rounds 0..r, those after it rounds 0..r-1, and a leg that ran out
	// of budget earlier stops at its last round. Rounds run past the cut
	// in wall-clock time are wasted CPU, never counted.
	c := cut.Load()
	decided := c != math.MaxInt64
	round, w := int(c/int64(n)), int(c%int64(n))
	for j, run := range runs {
		counted := len(run.rounds) - 1
		if decided {
			rounds := round
			if j <= w {
				rounds++
			}
			counted = min(counted, rounds)
		}
		e := run.rounds[counted]
		p.LastConflicts += e.conflicts
		p.LastPropagations += e.propagations
	}
	if decided && runs[w].res == sat.Unsat {
		// Unsat is ground truth whoever proves it; the lowest virtual
		// time makes the winner deterministic.
		p.LastWinner = w + 1
		return Unsat, nil
	}
	// An alternate Sat, or every alternate out of budget too: the
	// canonical Unknown stands.
	return Unknown, nil
}
