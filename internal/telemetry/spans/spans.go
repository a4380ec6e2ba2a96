// Package spans is the campaign's cost-attribution layer: a
// deterministic span tree threading campaign → unit → mutant → stage →
// solver query. Each fuzzing unit records its spans shard-locally into a
// Recorder (single goroutine, no locks on the hot path); the finished
// delta is folded into a Store, which merges deltas in canonical
// (group, index) order so the persisted spans file is byte-identical at
// any -workers value. Deltas are plain data and ride inside campaign
// checkpoints, so a killed-and-resumed campaign replays restored units'
// attribution instead of losing it.
//
// The package is write-only with respect to campaign results: nothing in
// the fuzzing loop reads a Recorder or Store, and every method is
// nil-safe so call sites need no "spans enabled?" branches.
//
// Wall-clock durations are inherently nondeterministic; a Store created
// with deterministic=true zeroes every offset/duration at record time,
// leaving only the deterministic structure and solver-effort counters
// (sat.conflicts / sat.propagations). That mode is what the byte-identity
// smoke tests compare; the default wall mode is what profiling wants.
package spans

import "time"

// Span names used by the fuzzing loop. A unit's root span is NameUnit;
// each kept mutant is a NameMutant child; stage and solver-query spans
// nest under their mutant.
const (
	NameUnit   = "unit"
	NameMutant = "mutant"
	NameQuery  = "tv.query"

	StageMutate = "mutate"
	StageOpt    = "opt"
	StageInterp = "interp"
)

// Cache attribute values on query spans. The verdict cache's lookup is
// the first step of the solve stage, so empty means the cache was
// disabled for the run or the query never got that far (Unsupported, or
// folded during encoding).
const (
	CacheHit  = "hit"
	CacheMiss = "miss"
)

// StaticProved is the Span.Static value for queries that folded during
// encoding and so were Valid without a SAT solve (mirrors tv.StaticProved;
// spans cannot import tv).
const StaticProved = "proved"

// Span is one node of a unit's span tree. IDs are dense and local to the
// unit (the root is always ID 0 with Parent -1); offsets are nanoseconds
// relative to the unit's start so the tree is position-independent —
// absolute wall-clock never enters the file.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	OffNS  int64  `json:"off_ns,omitempty"`
	DurNS  int64  `json:"dur_ns,omitempty"`

	// Mutant attributes (Name == NameMutant).
	Iter int    `json:"iter,omitempty"`
	Seed uint64 `json:"seed,omitempty"`

	// Solver-query attributes (Name == NameQuery). FP names the query by
	// the solve stage's key (empty for Unsupported queries). Static is
	// "proved" when the query folded during encoding and empty otherwise.
	// Cache is the verdict cache's outcome ("hit" or "miss"), empty when
	// the cache was off or never reached.
	Func         string `json:"func,omitempty"`
	FP           string `json:"fp,omitempty"`
	Verdict      string `json:"verdict,omitempty"`
	Cache        string `json:"cache,omitempty"`
	Static       string `json:"static,omitempty"`
	Conflicts    int64  `json:"conflicts,omitempty"`
	Propagations int64  `json:"propagations,omitempty"`
}

// UnitSpans is one unit's complete span delta: the checkpointable,
// mergeable, schema-stable record of where that unit's time and solver
// effort went. Group/Index give the canonical merge position.
type UnitSpans struct {
	Group           string `json:"group"`
	Unit            string `json:"unit"`
	Index           int    `json:"index"`
	Seed            uint64 `json:"seed,omitempty"`
	BudgetSpent     int64  `json:"budget_spent"`
	BudgetExhausted bool   `json:"budget_exhausted,omitempty"`
	Spans           []Span `json:"spans"`
}

// Recorder accumulates one unit's span tree. It is owned by the single
// goroutine executing that unit, so no locking; all methods are nil-safe.
//
// Mutants are materialized lazily: stage spans buffer in scratch and the
// subtree is kept only if the mutant issued at least one solver query or
// produced a finding/crash. Fast-path mutants (textual no-op, interpreter
// mismatch before TV) are dropped, bounding span memory and file size to
// O(solver queries), not O(mutants).
type Recorder struct {
	deterministic bool
	start         time.Time
	unit          UnitSpans

	// Scratch for the in-flight mutant.
	open    bool
	mutant  Span
	scratch []Span
	queried bool
	curFunc string
}

func newRecorder(deterministic bool, group, unit string, index int, seed uint64) *Recorder {
	r := &Recorder{
		deterministic: deterministic,
		unit: UnitSpans{
			Group: group,
			Unit:  unit,
			Index: index,
			Seed:  seed,
			Spans: []Span{{ID: 0, Parent: -1, Name: NameUnit}},
		},
	}
	if !deterministic {
		r.start = time.Now()
	}
	return r
}

// now returns nanoseconds since the unit started, or 0 in deterministic
// mode so recorded trees are byte-identical across runs.
func (r *Recorder) now() int64 {
	if r.deterministic {
		return 0
	}
	return int64(time.Since(r.start))
}

// BeginMutant opens a mutant span. Any previously open mutant is closed
// first (as if EndMutant(false) had been called).
func (r *Recorder) BeginMutant(iter int, seed uint64) {
	if r == nil {
		return
	}
	if r.open {
		r.EndMutant(false)
	}
	r.open = true
	r.queried = false
	r.scratch = r.scratch[:0]
	r.mutant = Span{Name: NameMutant, Iter: iter, Seed: seed, OffNS: r.now()}
}

// Stage records a completed pipeline stage of the current mutant. The
// caller passes the measured duration; the span's offset is derived so
// the slice ends "now".
func (r *Recorder) Stage(name string, dur time.Duration) {
	if r == nil || !r.open {
		return
	}
	off := r.now() - int64(dur)
	if off < 0 || r.deterministic {
		off = 0
	}
	r.scratch = append(r.scratch, Span{Name: name, OffNS: off, DurNS: r.dur(dur)})
}

// Func sets the seed function under test for subsequent Query calls. The
// TV observe hook doesn't carry the function name, so the fuzzing loop
// announces it before invoking the verifier.
func (r *Recorder) Func(name string) {
	if r == nil {
		return
	}
	r.curFunc = name
}

// QueryInfo carries one solver query's span attributes; see the Span
// field comments for the per-rung attribute vocabulary.
type QueryInfo struct {
	Verdict      string
	FP           string
	Cache        string
	Static       string
	Conflicts    int64
	Propagations int64
}

// Query records one translation-validation solver query with its
// per-rung cascade attributes.
func (r *Recorder) Query(q QueryInfo, dur time.Duration) {
	if r == nil {
		return
	}
	s := Span{
		Name:         NameQuery,
		OffNS:        0,
		DurNS:        r.dur(dur),
		Func:         r.curFunc,
		FP:           q.FP,
		Verdict:      q.Verdict,
		Cache:        q.Cache,
		Static:       q.Static,
		Conflicts:    q.Conflicts,
		Propagations: q.Propagations,
	}
	if off := r.now() - int64(dur); off > 0 && !r.deterministic {
		s.OffNS = off
	}
	if !r.open {
		// Defensive: a query outside any mutant (e.g. a future unit-level
		// preflight) attaches directly to the unit root.
		s.ID = len(r.unit.Spans)
		s.Parent = 0
		r.unit.Spans = append(r.unit.Spans, s)
		return
	}
	r.queried = true
	r.scratch = append(r.scratch, s)
}

// EndMutant closes the current mutant span. keep forces materialization
// even without a solver query (crashes and findings are always kept).
func (r *Recorder) EndMutant(keep bool) {
	if r == nil || !r.open {
		return
	}
	r.open = false
	if !r.queried && !keep {
		return
	}
	r.mutant.DurNS = r.dur(time.Duration(r.now() - r.mutant.OffNS))
	if r.deterministic {
		r.mutant.OffNS = 0
	}
	id := len(r.unit.Spans)
	r.mutant.ID = id
	r.mutant.Parent = 0
	r.unit.Spans = append(r.unit.Spans, r.mutant)
	for _, s := range r.scratch {
		s.ID = len(r.unit.Spans)
		s.Parent = id
		r.unit.Spans = append(r.unit.Spans, s)
	}
	r.scratch = r.scratch[:0]
}

// Finish closes the unit root and returns the completed delta. The
// Recorder must not be used afterwards.
func (r *Recorder) Finish(budgetSpent int64, budgetExhausted bool) *UnitSpans {
	if r == nil {
		return nil
	}
	if r.open {
		r.EndMutant(false)
	}
	r.unit.Spans[0].DurNS = r.dur(time.Duration(r.now()))
	r.unit.BudgetSpent = budgetSpent
	r.unit.BudgetExhausted = budgetExhausted
	u := r.unit
	return &u
}

// dur clamps a duration for recording: never negative, zero in
// deterministic mode.
func (r *Recorder) dur(d time.Duration) int64 {
	if r.deterministic || d < 0 {
		return 0
	}
	return int64(d)
}
