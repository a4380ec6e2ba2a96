// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation, 1UIP
// conflict analysis with clause learning, VSIDS variable activity with a
// binary heap, phase saving, Luby restarts, and activity-based learnt
// clause deletion.
//
// The hot path follows MiniSat's kernel (Eén & Sörensson) in how little
// memory it touches: clauses live in one flat arena (see cref); a binary
// clause's watchers are tagged (binTag), so propagating one reads only
// the watcher; watch lists are compacted in place as they are walked and
// begin in a per-solver slab; and a VSIDS bump only percolates its
// variable up the heap. None of this changes the search, which
// trajectory_test.go pins exactly (docs/PERFORMANCE.md, "Solver
// micro-optimizations").
//
// It is the decision engine underneath internal/smt's bit-blaster, playing
// the role Z3 plays for Alive2 in the paper's system.
package sat

import (
	"math"
	"slices"
	"sync/atomic"
)

// Lit is a literal: variable v (0-based) positively as 2v, negated as
// 2v+1.
type Lit int32

// MkLit builds a literal from a variable index and sign (neg=true for the
// negated literal).
func MkLit(v int, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// lbool is a three-valued boolean. The encoding is chosen so that
// negating a value is XOR with 1 and "undefined" survives negation
// (2^1 = 3, still >= lUndef): litValue is then a single load and XOR
// with the literal's sign bit, no branches — it is the hottest
// instruction sequence in the solver (see docs/PERFORMANCE.md).
type lbool uint8

const (
	lTrue  lbool = 0
	lFalse lbool = 1
	lUndef lbool = 2
)

// Result is a Solve outcome.
type Result int

const (
	// Unknown is returned when the solver hits its conflict budget.
	Unknown Result = iota
	// Sat means a satisfying assignment was found (read it with Value).
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

// interrupted is search's report of a round ended by Stop. It never
// leaves the package: the stepper turns it into Unknown and marks the
// search interrupted.
const interrupted Result = -1

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

// cref addresses a clause in the solver's clause arena (Solver.ca): the
// offset of its header word. The arena follows MiniSat's region
// allocator (Eén & Sörensson): every clause lives in one []Lit, so
// watchers and reasons hold plain offsets instead of pointers, and the
// clause database is a handful of large allocations the garbage collector
// never has to scan. A clause occupies
//
//	[activity lo][activity hi] header lit0 lit1 ...
//
// where the header word is size<<1 | learnt and the two activity words,
// present only on learnt clauses, hold the float64 bits of its activity.
// The literals start right after the header for every clause, so the
// propagation loop never looks at the learnt bit.
type cref uint32

// crefUndef is the reason of a decision, an assumption, a unit clause, or
// an unassigned variable, and propagate's "no conflict".
const crefUndef cref = math.MaxUint32

// binTag marks a watcher whose clause is binary (see watcher). Only
// watchers carry it: reasons, conflicts and the clause lists hold plain
// references, and alloc keeps every reference below it.
const binTag cref = 1 << 31

// Each literal's watch list starts in the solver's shared watcher slab
// with room for slabWatchers watchers, and moves to an allocation of its
// own only when it outgrows them (see NewVar). The slab is carved from
// chunks of at most slabChunkVars variables' lists.
const (
	slabWatchers  = 4
	slabChunkVars = 1024
)

// Config parameterizes the solver's search heuristics. The zero value is
// the canonical configuration, so New() and NewWith(Config{}) produce
// bit-identical searches. internal/tv's fallback leg solves a budget-bound
// query a second time under a longer restart unit and a slower activity
// decay, a regime that proves some queries the canonical schedule cannot
// afford.
type Config struct {
	// RestartBase is the Luby restart unit in conflicts (0 =
	// canonicalRestartBase).
	RestartBase int
	// VarDecay is the VSIDS activity decay divisor applied per conflict
	// (0 = canonicalVarDecay). Values closer to 1 decay slower (longer
	// memory).
	VarDecay float64
}

// The canonical search policy: a zero Config field takes these values,
// and clauseDecay, the learnt-clause activity decay divisor, is fixed.
const (
	canonicalRestartBase = 100
	canonicalVarDecay    = 0.95
	clauseDecay          = 0.999
)

// withDefaults resolves zero fields to the canonical policy constants.
func (c Config) withDefaults() Config {
	if c.RestartBase == 0 {
		c.RestartBase = canonicalRestartBase
	}
	if c.VarDecay == 0 {
		c.VarDecay = canonicalVarDecay
	}
	return c
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	ca      []Lit  // clause arena (see cref)
	wasted  int    // arena words held by detached clauses
	clauses []cref // problem clauses, in arena order
	learnts []cref // learnt clauses, in arena order

	watches [][]watcher // watches[lit] = clauses watching lit
	slab    []watcher   // unclaimed room for new literals' watch lists

	assign   []lbool // current assignment per var
	level    []int32 // decision level per var
	reason   []cref  // implying clause per assigned var, crefUndef if none
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap
	polarity []bool // saved phases

	claInc float64
	cfg    Config // resolved heuristic configuration (see NewWith)

	ok bool // false once the formula is trivially unsat

	// Statistics, exported for the throughput ablations.
	Conflicts    int64
	Decisions    int64
	Propagations int64

	// Budget caps the number of conflicts per Solve call; 0 means no cap.
	// It is checked only at restart boundaries, so a call may overshoot
	// it by up to one Luby round: the call returns Unknown after the
	// first undecided round that takes its conflicts past Budget. A
	// solver whose RestartBase is 4000 thus runs at least one
	// 4000-conflict round under any positive Budget.
	Budget int64
	// Stop, when non-nil, interrupts the search: it is polled once per
	// conflict, and once it reads true the current restart round ends
	// and Solve returns Unknown. An interrupted solve stopped at a
	// wall-clock moment, so no caller may count its effort, and the
	// solver is not reused afterwards. internal/tv sets it on a solver
	// whose result can no longer matter.
	Stop *atomic.Bool

	seen  []bool // scratch for analyze
	model []lbool

	// conflict is the final conflict of the last failed
	// SolveUnderAssumptions call: the subset of assumption literals
	// (negated) that together are inconsistent with the formula. Empty
	// when the formula is unsatisfiable without any assumptions.
	conflict []Lit

	// Scratch buffers reused across calls, so AddClause, conflict
	// analysis, reduceDB and compaction allocate nothing per call.
	addScratch     []Lit
	learntScratch  []Lit
	cleanupScratch []int
	actsScratch    []float64
	gcScratch      []liveClause
}

// watcher is one entry of a watch list: the watched clause and a
// blocker, a literal of the clause whose truth satisfies it without a
// look at the arena. A binary clause's watchers carry binTag in cr, and
// their blocker is exactly the clause's other literal, so propagate
// settles them from the watcher alone.
type watcher struct {
	cr      cref
	blocker Lit
}

// New returns an empty solver with the canonical configuration.
func New() *Solver {
	return NewWith(Config{})
}

// NewWith returns an empty solver using the given heuristic
// configuration. NewWith(Config{}) is exactly New().
func NewWith(cfg Config) *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true, cfg: cfg.withDefaults()}
	s.order = newVarHeap(&s.activity)
	return s
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true) // default phase: false (neg)
	s.seen = append(s.seen, false)
	// Both literals' lists start in the shared slab, capped at
	// slabWatchers so that an append past it moves the list to an
	// allocation of its own instead of overrunning a neighbour. A new
	// slab chunk covers as many variables as the solver already has, up
	// to slabChunkVars, so a chunk's unclaimed tail stays small.
	if len(s.slab) < 2*slabWatchers {
		s.slab = make([]watcher, 2*slabWatchers*min(max(64, len(s.assign)), slabChunkVars))
	}
	s.watches = append(s.watches, s.slab[:0:slabWatchers], s.slab[slabWatchers:slabWatchers:2*slabWatchers])
	s.slab = s.slab[2*slabWatchers:]
	s.order.insert(v)
	return v
}

// Reserve makes room for n more variables, so that the next n NewVar
// calls grow none of the per-variable slices one append at a time. It
// changes nothing the search reads.
func (s *Solver) Reserve(n int) {
	if n <= 0 {
		return
	}
	s.assign = slices.Grow(s.assign, n)
	s.level = slices.Grow(s.level, n)
	s.reason = slices.Grow(s.reason, n)
	s.activity = slices.Grow(s.activity, n)
	s.polarity = slices.Grow(s.polarity, n)
	s.seen = slices.Grow(s.seen, n)
	s.watches = slices.Grow(s.watches, 2*n)
	s.order.heap = slices.Grow(s.order.heap, n)
	s.order.indices = slices.Grow(s.order.indices, n)
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// alloc appends a clause to the arena and returns its reference. A learnt
// clause starts with activity 0.
func (s *Solver) alloc(lits []Lit, learnt bool) cref {
	need := len(s.ca) + 3 + len(lits)
	if need > int(binTag) {
		panic("sat: clause arena exceeds 2^31 words")
	}
	if need > cap(s.ca) {
		// Double: append grows a large slice by only 1.25x, so an arena
		// built clause by clause would be copied many times over.
		grown := make([]Lit, len(s.ca), max(need, 2*cap(s.ca)))
		copy(grown, s.ca)
		s.ca = grown
	}
	hdr := Lit(len(lits)) << 1
	if learnt {
		s.ca = append(s.ca, 0, 0) // float64 0 is all-zero bits
		hdr |= 1
	}
	cr := cref(len(s.ca))
	s.ca = append(s.ca, hdr)
	s.ca = append(s.ca, lits...)
	return cr
}

// clauseLits returns the literals of clause cr, aliasing the arena: the
// slice is invalidated by the next alloc or garbageCollect.
func (s *Solver) clauseLits(cr cref) []Lit {
	return s.ca[cr+1 : cr+1+cref(s.ca[cr])>>1]
}

// clauseActivity returns the activity of learnt clause cr.
func (s *Solver) clauseActivity(cr cref) float64 {
	return math.Float64frombits(uint64(uint32(s.ca[cr-2])) | uint64(uint32(s.ca[cr-1]))<<32)
}

func (s *Solver) setClauseActivity(cr cref, a float64) {
	b := math.Float64bits(a)
	s.ca[cr-2], s.ca[cr-1] = Lit(uint32(b)), Lit(uint32(b>>32))
}

// litValue returns the literal's value under the current assignment:
// lTrue, lFalse, or >= lUndef when the variable is unassigned (callers
// compare against lTrue/lFalse only, never == lUndef, so the 2-vs-3
// ambiguity of an xored undef never escapes).
func (s *Solver) litValue(l Lit) lbool {
	return s.assign[l>>1] ^ lbool(l&1)
}

// AddClause adds a clause; it returns false if the formula became
// trivially unsatisfiable. Clauses may be added only at decision level 0
// (i.e., before Solve or between Solve calls).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Drop false and duplicate literals; drop the whole clause if it is
	// satisfied at level 0 or contains both l and ~l. Literal order is
	// kept.
	out := s.addScratch[:0]
	for _, l := range lits {
		if int(l.Var()) >= len(s.assign) {
			panic("sat: literal for unallocated variable")
		}
		switch s.litValue(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue // drop false literal
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Neg() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addScratch = out // alloc copies out into the arena
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], crefUndef) {
			s.ok = false
			return false
		}
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	cr := s.alloc(out, false)
	s.clauses = append(s.clauses, cr)
	s.watchClause(cr)
	return true
}

func (s *Solver) watchClause(cr cref) {
	// Watch the negations: when lits[0] becomes false we visit the clause.
	l0, l1 := s.ca[cr+1], s.ca[cr+2]
	wcr := cr
	if s.ca[cr]>>1 == 2 {
		wcr |= binTag
	}
	w0, w1 := l0.Neg(), l1.Neg()
	s.watches[w0] = append(s.watches[w0], watcher{wcr, l1})
	s.watches[w1] = append(s.watches[w1], watcher{wcr, l0})
}

func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.assignLit(l, from)
	return true
}

// assignLit puts the unassigned literal l on the trail, implied by from.
func (s *Solver) assignLit(l Lit, from cref) {
	v := l.Var()
	s.assign[v] = lbool(l & 1) // sign bit is the lbool encoding
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// crefUndef. Each watch list is compacted in place (MiniSat's i/j walk):
// a kept watcher moves down to j, one that found a new literal to watch
// is dropped, and only the shortened list is stored back.
func (s *Solver) propagate() cref {
	ca := s.ca // propagation never allocates clauses
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++

		np := p.Neg()
		ws := s.watches[p]
		i, j := 0, 0
		confl := crefUndef
		for i < len(ws) {
			w := ws[i]
			i++
			bv := s.litValue(w.blocker)
			if bv == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.cr&binTag != 0 {
				// Binary clause: the blocker is the other literal and it is
				// not true, so the clause is unit or conflicting, settled
				// without touching the arena. Note the implied literal may
				// sit at lits[1]; nothing position-sensitive sees binary
				// reasons (reduceDB keeps all binary clauses before its
				// locked check, and analyze/analyzeFinal match by value).
				ws[j] = w
				j++
				if bv == lFalse {
					confl = w.cr &^ binTag
					break
				}
				s.assignLit(w.blocker, w.cr&^binTag)
				continue
			}
			cr := w.cr
			lits := ca[cr+1 : cr+1+cref(ca[cr])>>1]
			// Ensure the false literal is lits[1].
			if lits[0] == np {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				ws[j] = watcher{cr, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.litValue(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					wl := lits[1].Neg()
					s.watches[wl] = append(s.watches[wl], watcher{cr, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{cr, first}
			j++
			if s.litValue(first) == lFalse {
				confl = cr
				break
			}
			s.assignLit(first, cr)
		}
		if confl != crefUndef {
			// Keep the watchers the walk did not reach.
			j += copy(ws[j:], ws[i:])
			s.qhead = len(s.trail)
		}
		s.watches[p] = s.watches[p][:j] // stores only the length
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

// analyze performs 1UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntScratch[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	curLevel := len(s.trailLim)

	cleanup := s.cleanupScratch[:0]
	for {
		s.bumpClause(confl)
		lits := s.clauseLits(confl)
		for i := 0; i < len(lits); i++ {
			q := lits[i]
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			cleanup = append(cleanup, v)
			s.bumpVar(v)
			if int(s.level[v]) >= curLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to expand from the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Neg()
			break
		}
		confl = s.reason[v]
	}

	// Compute backtrack level: highest level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, v := range cleanup {
		s.seen[v] = false
	}
	s.learntScratch = learnt
	s.cleanupScratch = cleanup
	return learnt, btLevel
}

// analyzeFinal computes the final conflict after assumption a was found
// to be falsified by propagation of the earlier assumptions: the subset
// of the assumption literals that is already inconsistent with the
// formula. At the point of the call every open decision level is an
// assumption pseudo-decision, so trail entries with no reason above
// trailLim[0] are exactly the assumptions involved.
func (s *Solver) analyzeFinal(a Lit) {
	s.conflict = append(s.conflict[:0], a)
	if len(s.trailLim) == 0 {
		return
	}
	s.seen[a.Var()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if r := s.reason[v]; r == crefUndef {
			// Pseudo-decision: this trail literal is one of the assumptions.
			s.conflict = append(s.conflict, s.trail[i])
		} else {
			for _, q := range s.clauseLits(r) {
				if q.Var() != v && s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[a.Var()] = false
}

func (s *Solver) cancelUntil(lvl int) {
	if len(s.trailLim) <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assign[v] == lFalse
		s.assign[v] = lUndef
		s.reason[v] = crefUndef
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.increase(v)
}

func (s *Solver) bumpClause(cr cref) {
	if s.ca[cr]&1 == 0 {
		return // problem clause
	}
	a := s.clauseActivity(cr) + s.claInc
	s.setClauseActivity(cr, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setClauseActivity(lc, s.clauseActivity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decide() Lit {
	for {
		v, ok := s.order.removeMax()
		if !ok {
			return -1
		}
		if s.assign[v] == lUndef {
			s.Decisions++
			return MkLit(v, s.polarity[v])
		}
	}
}

// luby computes the Luby restart sequence term.
func luby(y float64, x int) float64 {
	size, seq := 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x = x % size
	}
	p := 1.0
	for i := 0; i < seq; i++ {
		p *= y
	}
	return p
}

// reduceDB removes the less active half of the learnt clauses (keeping
// binary clauses and current reasons), then compacts the arena once
// detached clauses hold more than a fifth of it.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 2 {
		return
	}
	// Partial sort: simple threshold on median activity.
	acts := s.actsScratch[:0]
	for _, cr := range s.learnts {
		acts = append(acts, s.clauseActivity(cr))
	}
	s.actsScratch = acts
	med := quickMedian(acts)
	kept := s.learnts[:0]
	for _, cr := range s.learnts {
		size := int(s.ca[cr] >> 1)
		if size <= 2 || s.locked(cr) || s.clauseActivity(cr) >= med {
			kept = append(kept, cr)
		} else {
			s.detachClause(cr)
			s.wasted += 3 + size // activity, header, literals
		}
	}
	s.learnts = kept
	if s.wasted*5 > len(s.ca) {
		s.garbageCollect()
	}
}

// locked reports whether learnt clause cr is the reason for its first
// literal's current assignment (the watched asserting literal), so no
// reason-set map is needed.
func (s *Solver) locked(cr cref) bool {
	v := s.ca[cr+1].Var()
	return s.assign[v] != lUndef && s.reason[v] == cr
}

func (s *Solver) detachClause(cr cref) {
	s.removeWatch(s.ca[cr+1].Neg(), cr)
	s.removeWatch(s.ca[cr+2].Neg(), cr)
}

// removeWatch swap-removes clause cr's watcher from watches[wl].
func (s *Solver) removeWatch(wl Lit, cr cref) {
	ws := s.watches[wl]
	for i, w := range ws {
		if w.cr&^binTag == cr {
			ws[i] = ws[len(ws)-1]
			s.watches[wl] = ws[:len(ws)-1]
			return
		}
	}
}

// liveClause is a clause that survives a compaction: its reference before
// the move and its header word, which garbageCollect overwrites with the
// clause's new reference while it rewrites references.
type liveClause struct {
	from cref
	hdr  Lit
}

// garbageCollect compacts the arena in place: every live clause slides
// down over the space of detached ones, and every reference — watchers,
// reasons, both clause lists — is rewritten. No list is reordered and no
// clause changes, so the search after a compaction is exactly the search
// without it.
func (s *Solver) garbageCollect() {
	// The live clauses in arena order. Each list is in arena order already
	// (clauses are appended, reduceDB filters in order), so merge them.
	live := s.gcScratch[:0]
	i, j := 0, 0
	for i < len(s.clauses) || j < len(s.learnts) {
		var cr cref
		if j == len(s.learnts) || i < len(s.clauses) && s.clauses[i] < s.learnts[j] {
			cr, i = s.clauses[i], i+1
		} else {
			cr, j = s.learnts[j], j+1
		}
		live = append(live, liveClause{cr, s.ca[cr]})
	}
	s.gcScratch = live

	// Assign each clause its new place, recording it in the old header.
	var dst cref
	for _, c := range live {
		pre := cref(c.hdr&1) * 2 // activity words
		s.ca[c.from] = Lit(dst + pre)
		dst += pre + 1 + cref(c.hdr)>>1
	}
	fwd := func(cr cref) cref { return cref(s.ca[cr]) }
	for k, cr := range s.clauses {
		s.clauses[k] = fwd(cr)
	}
	for k, cr := range s.learnts {
		s.learnts[k] = fwd(cr)
	}
	for _, ws := range s.watches {
		for k, w := range ws {
			ws[k].cr = fwd(w.cr&^binTag) | w.cr&binTag
		}
	}
	for _, l := range s.trail {
		if v := l.Var(); s.reason[v] != crefUndef {
			s.reason[v] = fwd(s.reason[v])
		}
	}

	// Move. A clause's new place never lies past its old one, and earlier
	// clauses land before it, so copying in arena order overwrites only
	// words already moved or dead.
	dst = 0
	for _, c := range live {
		pre := cref(c.hdr&1) * 2
		n := pre + 1 + cref(c.hdr)>>1
		copy(s.ca[dst:dst+n], s.ca[c.from-pre:])
		s.ca[dst+pre] = c.hdr
		dst += n
	}
	s.ca = s.ca[:dst]
	s.wasted = 0
}

func quickMedian(xs []float64) float64 {
	// Median-of-medians is overkill; a copy+nth_element via simple
	// quickselect keeps reduceDB O(n).
	n := len(xs)
	k := n / 2
	lo, hi := 0, n-1
	for lo < hi {
		pivot := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[k]
}

// Solve determines satisfiability under the given assumption literals.
// It returns Unknown only if the conflict Budget is exhausted.
func (s *Solver) Solve(assumptions ...Lit) Result {
	return s.SolveUnderAssumptions(assumptions)
}

// SolveUnderAssumptions determines satisfiability with the given literals
// held true for the duration of this call only (MiniSat-style incremental
// interface). Learnt clauses are retained across calls, so a sequence of
// related queries on one solver shares all derived lemmas. After an Unsat
// result, Conflict returns the subset of assumptions that failed. The
// solver is fully reusable afterwards — including after a Budget-exhausted
// Unknown: every call re-enters the search loop from decision level 0 with
// a fresh per-call conflict allowance, so a reused solver can never carry
// a stale Unknown verdict.
func (s *Solver) SolveUnderAssumptions(assumptions []Lit) Result {
	st := s.newStepper(assumptions)
	for {
		res := st.step()
		if res != Unknown || st.interrupted {
			return res
		}
		// A round that ends undecided has restarted to level 0, so the
		// solver is reusable as it stands.
		if s.Budget > 0 && st.conflicts() > s.Budget {
			return Unknown
		}
	}
}

// stepper is one SolveUnderAssumptions search, run one Luby restart round
// per step. Rounds end at restart boundaries, where the trail is back at
// level 0, which is where the conflict budget is checked.
type stepper struct {
	s           *Solver
	assumptions []Lit
	maxLearnts  float64
	curRestart  int
	start       int64 // s.Conflicts at construction
	done        bool
	interrupted bool
	res         Result
}

// newStepper begins a search under the given assumptions with the
// level-0 propagation every solve starts with; a formula already decided
// there is reported by the first step.
func (s *Solver) newStepper(assumptions []Lit) *stepper {
	st := &stepper{s: s, assumptions: assumptions, start: s.Conflicts}
	s.conflict = s.conflict[:0]
	if !s.ok {
		st.done, st.res = true, Unsat
		return st
	}
	s.cancelUntil(0)
	if s.propagate() != crefUndef {
		s.ok = false
		st.done, st.res = true, Unsat
		return st
	}
	st.maxLearnts = float64(len(s.clauses))/3 + 1000
	return st
}

// step runs the next restart round. Unknown means the search has not
// decided yet, or that Stop interrupted the round (interrupted is then
// set); any other result is final and repeated by further steps, as is
// an interruption.
func (st *stepper) step() Result {
	if st.done {
		return st.res
	}
	s := st.s
	budgetC := int64(s.cfg.RestartBase) * int64(luby(2, st.curRestart))
	res := s.search(budgetC, st.assumptions, &st.maxLearnts)
	if res == interrupted {
		st.done, st.interrupted, st.res = true, true, Unknown
		return Unknown
	}
	if res != Unknown {
		if res == Sat {
			s.model = append(s.model[:0], s.assign...)
		}
		s.cancelUntil(0)
		st.done, st.res = true, res
		return res
	}
	st.curRestart++
	return Unknown
}

// conflicts reports the conflicts this search has spent so far.
func (st *stepper) conflicts() int64 { return st.s.Conflicts - st.start }

// Conflict returns the final conflict of the most recent Unsat result
// from SolveUnderAssumptions: a subset of the assumption literals that is
// inconsistent with the formula. An empty slice means the formula is
// unsatisfiable regardless of assumptions. The slice is valid until the
// next Solve call.
func (s *Solver) Conflict() []Lit { return s.conflict }

// search runs CDCL until a result, a restart (conflict budget for this
// round exhausted → Unknown), an assumption conflict (→ Unsat), or a
// raised Stop flag after a conflict (→ interrupted).
func (s *Solver) search(nConflicts int64, assumptions []Lit, maxLearnts *float64) Result {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.Conflicts++
			conflicts++
			if len(s.trailLim) == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], crefUndef) {
					s.ok = false
					return Unsat
				}
			} else {
				cr := s.alloc(learnt, true)
				s.learnts = append(s.learnts, cr)
				s.watchClause(cr)
				s.bumpClause(cr)
				s.enqueue(learnt[0], cr)
			}
			s.varInc /= s.cfg.VarDecay // VSIDS decay
			s.claInc /= clauseDecay
			if s.Stop != nil && s.Stop.Load() {
				s.cancelUntil(0)
				return interrupted
			}
			continue
		}

		if conflicts >= nConflicts {
			s.cancelUntil(0) // restart
			return Unknown
		}
		if float64(len(s.learnts)) > *maxLearnts {
			s.reduceDB()
			*maxLearnts *= 1.1
		}

		// Apply assumptions as pseudo-decisions first.
		if len(s.trailLim) < len(assumptions) {
			a := assumptions[len(s.trailLim)]
			switch s.litValue(a) {
			case lTrue:
				// Already satisfied: open an empty decision level so the
				// bookkeeping (one level per assumption) stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				s.analyzeFinal(a)
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, crefUndef)
			continue
		}

		l := s.decide()
		if l == -1 {
			return Sat // all variables assigned
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, crefUndef)
	}
}

// Value returns the assignment of variable v in the most recent Sat model.
func (s *Solver) Value(v int) bool {
	if v >= len(s.model) {
		return false
	}
	return s.model[v] == lTrue
}

// varHeap is a max-heap over variable activity (MiniSat's order heap).
// Activity only ever rises between rescalings, and a rescaling multiplies
// every activity by the same factor, so a variable already in the heap
// only ever moves towards the root (increase).
type varHeap struct {
	act     *[]float64
	heap    []int
	indices []int // position in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act}
}

func (h *varHeap) insert(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.indices[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.up(h.indices[v])
}

// increase restores the heap after v's activity rose (MiniSat's
// decrease, whose heap orders the other way round).
func (h *varHeap) increase(v int) {
	if v < len(h.indices) && h.indices[v] >= 0 {
		h.up(h.indices[v])
	}
}

func (h *varHeap) removeMax() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[top] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 0
		h.down(0)
	}
	return top, true
}

func (h *varHeap) up(i int) {
	act, heap := *h.act, h.heap
	v := heap[i]
	a := act[v]
	for i > 0 {
		p := (i - 1) / 2
		if !(a > act[heap[p]]) {
			break
		}
		heap[i] = heap[p]
		h.indices[heap[p]] = i
		i = p
	}
	heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) down(i int) {
	act, heap := *h.act, h.heap
	v := heap[i]
	a := act[v]
	for {
		c := 2*i + 1
		if c >= len(heap) {
			break
		}
		if c+1 < len(heap) && act[heap[c+1]] > act[heap[c]] {
			c++
		}
		if !(act[heap[c]] > a) {
			break
		}
		heap[i] = heap[c]
		h.indices[heap[c]] = i
		i = c
	}
	heap[i] = v
	h.indices[v] = i
}
