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
// the wall clock. Every leg runs on its own goroutine with its own
// solver and blaster, and the verdict is the one this sequential
// schedule reaches, by fixed priority:
//
//   - Configs[0] is the canonical configuration, and its leg comes first:
//     it runs to its own conclusion exactly as sat.SolveUnderAssumptions
//     would run it (the sat.Stepper preserves the uninterrupted
//     trajectory bit for bit), so whenever the canonical leg decides —
//     the overwhelming majority of queries — the result, including the
//     Sat model, is byte-identical to a non-portfolio solve, and the
//     alternates count for nothing.
//   - Only on a canonical budget Unknown do the alternates count. Round r
//     of alternate j (0-based, n alternates) sorts at r*n + j, the
//     lowest-sorting decision ends the race, and effort is counted up to
//     it, as on a round-robin schedule on one goroutine.
//   - An alternate may contribute exactly one thing: an Unsat proof,
//     which is config-independent ground truth. An alternate Sat also
//     ends the race, with the canonical Unknown standing:
//     satisfiability rules out any Unsat proof, and a non-canonical
//     model cannot replace the canonical one.
//
// A leg's trajectory depends on nothing but its own configuration (Terms
// are immutable), so running legs early or side by side can only waste
// CPU on rounds the schedule never reaches, never change a number. Start
// launches the canonical leg and Wait the alternates, so a caller with
// something else to try first (the incremental session in internal/tv)
// runs it beside the canonical leg and pays for the alternates only when
// it needs the race's result. A leg whose result can no longer matter —
// the canonical leg decided, or an alternate decided at a lower-sorting
// round — is interrupted inside its search (sat.Solver.Stop).
//
// The only way a portfolio verdict can differ from the canonical
// verdict is therefore Unknown→Unsat — the same strictly one-directional
// budget-rescue divergence the incremental session and static rung are
// allowed (internal/tv Options.Incremental).
type Portfolio struct {
	// Configs are the racing solver configurations; Configs[0] must be
	// the canonical one (zero sat.Config). Fewer than two entries make
	// the portfolio a single canonical solve, equivalent to
	// Checker.Check.
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

	// Stats from the most recent race. LastConflicts/LastPropagations
	// sum over every counted leg up to the deciding round of the virtual
	// schedule (the honest cost of the race, independent of how far the
	// goroutines ran past it); LastVars is the canonical leg's CNF size.
	LastConflicts    int64
	LastPropagations int64
	LastVars         int
	// LastWinner is the index of the configuration whose result became
	// the verdict (-1 when the query was decided structurally or every
	// leg exhausted its budget). LastRaced reports whether the
	// alternates counted at all (the canonical leg ran out of budget).
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

func newLeg(cfg sat.Config, formula *Term, vars []*Term, stop *atomic.Bool) *leg {
	s := sat.NewWith(cfg)
	s.Stop = stop
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
// same post-round boundary sat.SolveUnderAssumptions uses). An
// interrupted round reports Unknown and not running; the caller tells it
// apart with l.st.Interrupted and must not count it.
func (l *leg) step(budget int64) (sat.Result, bool) {
	if r := l.st.Step(); r != sat.Unknown || l.st.Interrupted() {
		return r, false
	}
	return sat.Unknown, budget <= 0 || l.st.Conflicts() <= budget
}

// effort is a leg's cumulative solver effort at a round boundary.
type effort struct{ conflicts, propagations int64 }

func (l *leg) effort() effort { return effort{l.s.Conflicts, l.s.Propagations} }

// canonRun is what the canonical leg leaves behind.
type canonRun struct {
	res    sat.Result
	model  Model
	vars   int
	effort effort
}

// altRun is what one alternate leg leaves behind for adjudication.
type altRun struct {
	// rounds[0] is the effort after construction and rounds[r+1] the
	// effort after round r; an interrupted round is never recorded.
	rounds []effort
	// res is the verdict of the leg's last round (Unknown when it ran
	// out of budget, stopped at the cut, or was interrupted).
	res sat.Result
	// cur is the key of the round the leg is in or about to start, and
	// stop interrupts it (sat.Solver.Stop).
	cur  atomic.Int64
	stop atomic.Bool
}

// Race is one portfolio query in flight, returned by Portfolio.Start.
// The goroutine that started it must end it with exactly one call to
// Wait or Cancel (a later call of either is a no-op); until then it owns
// the Portfolio's Last* fields.
type Race struct {
	p       *Portfolio
	formula *Term
	vars    []*Term
	ended   bool

	// trivial marks a formula decided structurally, with res its verdict;
	// no leg runs.
	trivial bool
	res     Result

	canonStop atomic.Bool
	canonDone chan struct{}
	canon     canonRun // written by the canonical leg before canonDone closes

	alts   []altRun
	altsWG sync.WaitGroup
	// abandoned tells alternates not yet built that the race no longer
	// needs them.
	abandoned atomic.Bool
	// cut is the lowest key, r*n + j for round r of alternate j, at
	// which an alternate has decided so far; no alternate starts a round
	// that sorts after it.
	cut atomic.Int64
}

// Check decides satisfiability of the bv1 term formula: Start, then
// Wait, so the alternates run beside the canonical leg from the start
// and are interrupted if it decides. A portfolio of one leg has nothing
// to run beside it, so its leg runs on the calling goroutine. On Sat it
// returns the canonical leg's model, assigning every variable reachable
// from the formula — byte-identical to Checker.Check's model.
func (p *Portfolio) Check(formula *Term) (Result, Model) {
	return p.start(formula, len(p.Configs) >= 2).Wait()
}

// Start launches the canonical leg on its own goroutine and returns at
// once. The alternates start when Wait is called.
func (p *Portfolio) Start(formula *Term) *Race {
	return p.start(formula, true)
}

// start begins the race, with the canonical leg on its own goroutine
// when async is set and run to its end before returning otherwise.
func (p *Portfolio) start(formula *Term, async bool) *Race {
	p.LastConflicts, p.LastPropagations, p.LastVars = 0, 0, 0
	p.LastWinner, p.LastRaced = -1, false
	if formula.W != 1 {
		panic("smt: Check on non-bv1 term")
	}
	r := &Race{p: p, formula: formula}
	switch {
	case formula.IsTrue():
		r.trivial, r.res = true, Sat
		return r
	case formula.IsFalse():
		r.trivial, r.res = true, Unsat
		return r
	}
	r.vars = Vars(formula)
	canonCfg := sat.Config{}
	if len(p.Configs) > 0 {
		canonCfg = p.Configs[0]
	}
	budget := p.ConflictBudget
	r.canonDone = make(chan struct{})
	canonical := func() {
		defer close(r.canonDone)
		l := newLeg(canonCfg, formula, r.vars, &r.canonStop)
		c := &r.canon
		c.vars = l.s.NumVars()
		for {
			res, running := l.step(budget)
			if res == sat.Sat {
				c.model = make(Model, len(r.vars))
				for _, v := range r.vars {
					c.model[v.Name] = l.bl.ModelValue(v)
				}
			}
			if !running {
				c.res, c.effort = res, l.effort()
				return
			}
		}
	}
	if async {
		go canonical()
	} else {
		canonical()
	}
	return r
}

// Cancel interrupts every leg and waits for them to return. The race's
// result is discarded and the Portfolio's Last* fields keep the values
// Start reset them to.
func (r *Race) Cancel() {
	if r.ended {
		return
	}
	r.ended = true
	if r.trivial {
		return
	}
	r.canonStop.Store(true)
	r.abandonAlternates()
	<-r.canonDone
}

// Wait starts the alternates, unless the canonical leg has already
// decided, waits for the race to end, and adjudicates it in virtual
// time. It fills in the Portfolio's Last* fields.
func (r *Race) Wait() (Result, Model) {
	if r.ended {
		return Unknown, nil
	}
	r.ended = true
	p := r.p
	if r.trivial {
		if r.res == Sat {
			return Sat, Model{}
		}
		return r.res, nil
	}
	racing := len(p.Configs) >= 2
	if racing {
		select {
		case <-r.canonDone:
			if r.canon.res == sat.Unknown {
				r.startAlternates()
			}
		default:
			r.startAlternates()
		}
	}
	<-r.canonDone
	c := &r.canon
	p.LastVars = c.vars
	p.LastConflicts, p.LastPropagations = c.effort.conflicts, c.effort.propagations
	switch {
	case c.res == sat.Sat:
		r.abandonAlternates()
		p.LastWinner = 0
		return Sat, c.model
	case c.res == sat.Unsat:
		r.abandonAlternates()
		p.LastWinner = 0
		return Unsat, nil
	case !racing:
		return Unknown, nil
	}

	// The canonical leg ran out of budget: the race proper. The
	// alternates hunt the Unsat proof the canonical schedule could not
	// afford; an alternate Sat ends the race, since satisfiability rules
	// out any Unsat proof and a non-canonical model cannot upgrade the
	// canonical Unknown.
	p.LastRaced = true
	r.altsWG.Wait()

	// Adjudicate in virtual time. A decision at round r of alternate w
	// ends the round-robin schedule there: alternates up to w have run
	// rounds 0..r, those after it rounds 0..r-1, and a leg that ran out
	// of budget earlier stops at its last round. Rounds run past the cut
	// in wall-clock time are wasted CPU, never counted.
	n := len(r.alts)
	cut := r.cut.Load()
	decided := cut != math.MaxInt64
	round, w := int(cut/int64(n)), int(cut%int64(n))
	for j := range r.alts {
		run := &r.alts[j]
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
	if decided && r.alts[w].res == sat.Unsat {
		// Unsat is ground truth whoever proves it; the lowest virtual
		// time makes the winner deterministic.
		p.LastWinner = w + 1
		return Unsat, nil
	}
	// An alternate Sat, or every alternate out of budget too: the
	// canonical Unknown stands.
	return Unknown, nil
}

// startAlternates launches one goroutine per alternate leg.
func (r *Race) startAlternates() {
	p := r.p
	budget := p.AlternateBudget
	if budget == 0 {
		budget = p.ConflictBudget
	}
	n := int64(len(p.Configs) - 1)
	r.alts = make([]altRun, n)
	r.cut.Store(math.MaxInt64)
	for j, cfg := range p.Configs[1:] {
		run := &r.alts[j]
		run.cur.Store(int64(j))
		r.altsWG.Add(1)
		go func() {
			defer r.altsWG.Done()
			if r.abandoned.Load() {
				return
			}
			l := newLeg(cfg, r.formula, r.vars, &run.stop)
			run.rounds = append(run.rounds, l.effort())
			for key := int64(j); ; key += n {
				run.cur.Store(key)
				if key > r.cut.Load() {
					return
				}
				res, running := l.step(budget)
				if l.st.Interrupted() {
					return
				}
				run.rounds = append(run.rounds, l.effort())
				if res != sat.Unknown {
					run.res = res
					r.lowerCut(key)
					return
				}
				if !running {
					return
				}
			}
		}()
	}
}

// lowerCut lowers the cut to key, keeping the minimum, and interrupts
// every alternate whose current round sorts after the new cut: neither
// that round nor any later one of the leg can count. A leg in a round
// that sorts before the cut runs on, since it may still decide first.
func (r *Race) lowerCut(key int64) {
	for c := r.cut.Load(); key < c; c = r.cut.Load() {
		if r.cut.CompareAndSwap(c, key) {
			for j := range r.alts {
				if r.alts[j].cur.Load() > key {
					r.alts[j].stop.Store(true)
				}
			}
			return
		}
	}
}

// abandonAlternates interrupts every alternate leg and waits for them:
// the canonical leg decided, or the race was cancelled.
func (r *Race) abandonAlternates() {
	r.abandoned.Store(true)
	for j := range r.alts {
		r.alts[j].stop.Store(true)
	}
	r.altsWG.Wait()
}
