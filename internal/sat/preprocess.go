package sat

// SatELite-lite CNF preprocessing: clause subsumption, self-subsuming
// resolution (strengthening), and bounded variable elimination, in the
// style of Eén & Biere's SatELite as integrated into MiniSat 2. The
// paper's pipeline bit-blasts each refinement query into CNF with heavy
// structural redundancy (Tseitin definitions for shared subterms), which
// is exactly the shape these three rules shrink well.
//
// Protocol: add all problem clauses, Freeze every variable whose model
// value the caller will read or that will appear in an assumption, call
// Preprocess once, then Solve/SolveUnderAssumptions as usual. Models are
// automatically extended back over eliminated variables, so Value is
// valid for frozen and eliminated variables alike.

import "sort"

// elimRecord remembers, for one eliminated variable, the clauses that
// contained its positive literal at elimination time. extendModel replays
// the stack in reverse: v defaults to false and flips to true only if
// some saved clause would otherwise be unsatisfied (the standard SatELite
// model-reconstruction rule).
type elimRecord struct {
	v   int
	pos [][]Lit
}

// Freeze marks a variable as ineligible for elimination. Callers must
// freeze every variable they will pass as an assumption or read from a
// model... reading an eliminated variable is actually fine (extendModel
// defines it), but assuming one panics, so freezing the query interface
// variables is the simple safe rule.
func (s *Solver) Freeze(v int) { s.frozen[v] = true }

// Preprocessed reports whether Preprocess has run on this solver.
func (s *Solver) Preprocessed() bool { return s.preprocessed }

// Elimination effort bounds: variables occurring in more than elimOccLim
// clauses are skipped outright, an elimination must not increase the
// clause count, and no resolvent may exceed elimClauseLim literals.
const (
	elimOccLim    = 10
	elimClauseLim = 20
)

// pclause is a preprocessing-time clause: sorted deduplicated literals
// plus a 64-bit variable signature for fast subsumption rejection.
type pclause struct {
	lits []Lit
	sig  uint64
	dead bool
}

func sigOf(lits []Lit) uint64 {
	var sg uint64
	for _, l := range lits {
		sg |= 1 << (uint(l.Var()) % 64)
	}
	return sg
}

func sortLits(lits []Lit) {
	sort.Slice(lits, func(i, j int) bool { return lits[i] < lits[j] })
}

type preproc struct {
	s       *Solver
	clauses []*pclause
	occ     [][]*pclause // occ[v] = clauses that contained var v when added
	queue   []*pclause   // backward-subsumption worklist (FIFO)
	qhead   int
	units   []Lit // pending unit clauses discovered by strengthening
}

// Preprocess simplifies the clause database in place. It must be called
// at decision level 0, before the first Solve (no learnt clauses yet).
// It returns false if the formula was proven unsatisfiable. Calling it
// again is a no-op.
func (s *Solver) Preprocess() bool {
	if s.preprocessed {
		return s.ok
	}
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: Preprocess above decision level 0")
	}
	if len(s.learnts) != 0 {
		panic("sat: Preprocess after learning (call it before the first Solve)")
	}

	p := &preproc{s: s, occ: make([][]*pclause, s.NumVars())}

	// Snapshot the problem clauses, simplified under the level-0
	// assignment. AddClause propagates units to fixpoint, so a surviving
	// clause always keeps >= 2 literals here.
	for _, cr := range s.clauses {
		lits := s.clauseLits(cr)
		out := make([]Lit, 0, len(lits))
		satisfied := false
		for _, l := range lits {
			switch s.litValue(l) {
			case lTrue:
				satisfied = true
			case lFalse:
				// drop
			default:
				out = append(out, l)
			}
			if satisfied {
				break
			}
		}
		if satisfied {
			continue
		}
		sortLits(out)
		p.add(&pclause{lits: out, sig: sigOf(out)})
	}

	ok := p.run()
	if !ok {
		s.ok = false
		s.preprocessed = true
		return false
	}

	// Install the simplified database: refill the arena and the clause
	// list from scratch, rebuild every watch list, and drop level-0
	// reasons (they referenced the old arena; conflict analysis never
	// expands level-0 reasons anyway).
	s.ca, s.wasted = s.ca[:0], 0
	s.clauses = s.clauses[:0]
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for _, c := range p.clauses {
		if c.dead {
			continue
		}
		cr := s.alloc(c.lits, false)
		s.clauses = append(s.clauses, cr)
		s.watchClause(cr)
	}
	for _, l := range s.trail {
		s.reason[l.Var()] = crefUndef
	}
	s.qhead = len(s.trail)
	s.preprocessed = true
	return true
}

func (p *preproc) add(c *pclause) {
	p.clauses = append(p.clauses, c)
	for _, l := range c.lits {
		p.occ[l.Var()] = append(p.occ[l.Var()], c)
	}
	p.queue = append(p.queue, c)
}

// run drives subsumption to fixpoint, then a single deterministic
// ascending-variable elimination sweep (each elimination queues its
// resolvents, so subsumption re-runs over new clauses), then a final
// subsumption drain. Returns false on derived unsatisfiability.
func (p *preproc) run() bool {
	if !p.drain() {
		return false
	}
	for v := 0; v < p.s.NumVars(); v++ {
		if p.s.frozen[v] || p.s.eliminated[v] || p.s.assign[v] != lUndef {
			continue
		}
		if !p.tryEliminate(v) {
			return false
		}
		if !p.drain() {
			return false
		}
	}
	return p.drain()
}

// drain processes the subsumption queue and any pending units until both
// are empty.
func (p *preproc) drain() bool {
	for {
		if len(p.units) > 0 {
			l := p.units[0]
			p.units = p.units[1:]
			if !p.assignUnit(l) {
				return false
			}
			continue
		}
		if p.qhead < len(p.queue) {
			c := p.queue[p.qhead]
			p.qhead++
			if !c.dead {
				if !p.backwardSubsume(c) {
					return false
				}
			}
			continue
		}
		return true
	}
}

// assignUnit records a unit derived during preprocessing: it is enqueued
// at decision level 0 in the solver and applied to every clause that
// mentions its variable.
func (p *preproc) assignUnit(l Lit) bool {
	switch p.s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	p.s.enqueue(l, crefUndef)
	for _, c := range p.occ[l.Var()] {
		if c.dead {
			continue
		}
		if containsLit(c.lits, l) {
			c.dead = true
			continue
		}
		if containsLit(c.lits, l.Neg()) {
			if !p.strengthen(c, l.Neg()) {
				return false
			}
		}
	}
	return true
}

// strengthen removes literal m from clause c (self-subsuming resolution
// or unit simplification), requeueing the now-stronger clause.
func (p *preproc) strengthen(c *pclause, m Lit) bool {
	out := c.lits[:0]
	for _, l := range c.lits {
		if l != m {
			out = append(out, l)
		}
	}
	c.lits = out
	c.sig = sigOf(out)
	p.s.StrengthenedClauses++
	switch len(c.lits) {
	case 0:
		return false
	case 1:
		c.dead = true
		p.units = append(p.units, c.lits[0])
		return true
	}
	p.queue = append(p.queue, c)
	return true
}

// backwardSubsume checks clause c against every clause sharing its
// least-occurring variable: clauses c subsumes die; clauses c would
// subsume but for one flipped literal are strengthened.
func (p *preproc) backwardSubsume(c *pclause) bool {
	if len(c.lits) == 0 {
		return false
	}
	minVar := c.lits[0].Var()
	for _, l := range c.lits[1:] {
		if len(p.occ[l.Var()]) < len(p.occ[minVar]) {
			minVar = l.Var()
		}
	}
	for _, d := range p.occ[minVar] {
		if d == c || d.dead || c.dead {
			continue
		}
		switch str, kind := subsumes(c, d); kind {
		case subsumeExact:
			d.dead = true
			p.s.SubsumedClauses++
		case subsumeStrengthen:
			if !p.strengthen(d, str) {
				return false
			}
		}
	}
	return true
}

const (
	subsumeNo = iota
	subsumeExact
	subsumeStrengthen
)

// subsumes reports whether every literal of c appears in d (subsumeExact)
// or every literal but exactly one appears while that one appears
// negated (subsumeStrengthen, returning d's literal to remove).
func subsumes(c, d *pclause) (Lit, int) {
	if len(c.lits) > len(d.lits) || c.sig&^d.sig != 0 {
		return 0, subsumeNo
	}
	var str Lit = -1
	for _, l := range c.lits {
		found := false
		for _, m := range d.lits {
			if l == m {
				found = true
				break
			}
			if str == -1 && l == m.Neg() {
				str = m
				found = true
				break
			}
		}
		if !found {
			return 0, subsumeNo
		}
	}
	if str == -1 {
		return 0, subsumeExact
	}
	return str, subsumeStrengthen
}

// tryEliminate attempts bounded variable elimination of v: if the set of
// non-tautological resolvents of its positive against its negative
// occurrences is no larger than the clauses removed (and no resolvent is
// oversized), v is resolved away. Positive-occurrence clauses are saved
// for model reconstruction.
func (p *preproc) tryEliminate(v int) bool {
	posLit, negLit := MkLit(v, false), MkLit(v, true)
	var pos, neg []*pclause
	for _, c := range p.occ[v] {
		if c.dead {
			continue
		}
		// Occurrence entries go stale when a clause is strengthened on v.
		if containsLit(c.lits, posLit) {
			pos = append(pos, c)
		} else if containsLit(c.lits, negLit) {
			neg = append(neg, c)
		}
	}
	total := len(pos) + len(neg)
	if total == 0 || total > elimOccLim {
		// total == 0: the variable no longer occurs; leaving it free is
		// fine (decide assigns it arbitrarily).
		return true
	}
	var resolvents [][]Lit
	for _, pc := range pos {
		for _, nc := range neg {
			r, ok := resolve(pc.lits, nc.lits, v)
			if !ok {
				continue // tautology
			}
			if len(r) > elimClauseLim {
				return true // too expensive; skip this variable
			}
			resolvents = append(resolvents, r)
			if len(resolvents) > total {
				return true // would grow the formula; skip
			}
		}
	}

	rec := elimRecord{v: v}
	for _, pc := range pos {
		rec.pos = append(rec.pos, append([]Lit(nil), pc.lits...))
		pc.dead = true
	}
	for _, nc := range neg {
		nc.dead = true
	}
	p.s.elimStack = append(p.s.elimStack, rec)
	p.s.eliminated[v] = true
	p.s.EliminatedVars++

	for _, r := range resolvents {
		switch len(r) {
		case 0:
			return false
		case 1:
			p.units = append(p.units, r[0])
		default:
			p.add(&pclause{lits: r, sig: sigOf(r)})
		}
	}
	return true
}

// resolve computes the resolvent of clauses a (containing v) and b
// (containing ¬v) on pivot v, returning ok=false for tautologies. Inputs
// are sorted and deduplicated; the output is too.
func resolve(a, b []Lit, v int) ([]Lit, bool) {
	out := make([]Lit, 0, len(a)+len(b)-2)
	for _, l := range a {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	for _, l := range b {
		if l.Var() == v {
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Neg() {
				return nil, false
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	sortLits(out)
	return out, true
}

func containsLit(lits []Lit, l Lit) bool {
	for _, m := range lits {
		if m == l {
			return true
		}
	}
	return false
}

// extendModel completes a satisfying assignment over the eliminated
// variables, replaying the elimination stack in reverse: each variable
// defaults to false and flips to true only if one of its saved positive
// clauses has every other literal false under the (partially extended)
// model. Negative-occurrence clauses are then satisfied automatically,
// by the soundness argument for variable elimination.
func (s *Solver) extendModel() {
	for i := len(s.elimStack) - 1; i >= 0; i-- {
		rec := s.elimStack[i]
		posLit := MkLit(rec.v, false)
		val := lFalse
		for _, cl := range rec.pos {
			forced := true
			for _, l := range cl {
				if l == posLit {
					continue
				}
				if s.modelLitTrue(l) {
					forced = false
					break
				}
			}
			if forced {
				val = lTrue
				break
			}
		}
		s.model[rec.v] = val
	}
}

// modelLitTrue evaluates a literal under the saved model. Unassigned
// (lUndef) variables evaluate to false either way, which is the same
// "default false" convention Value exposes.
func (s *Solver) modelLitTrue(l Lit) bool {
	if l.Sign() {
		return s.model[l.Var()] == lFalse
	}
	return s.model[l.Var()] == lTrue
}
