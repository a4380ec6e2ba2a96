// Package core is alive-mutate's integrated fuzzing engine: the
// mutate→optimize→verify loop of paper Fig. 3, running mutation, the
// optimizer, and translation validation inside one process so the loop
// pays none of the parse/print/fork overheads of the discrete-tool
// workflow in Fig. 2.
//
// The loop (paper §III):
//
//  1. Parsing & preprocessing: every function the validator cannot encode,
//     and every function whose UN-mutated form already fails validation,
//     is dropped (§III-A). Analyses (dominators, shuffle ranges, constant
//     sites) are computed once.
//  2. Mutation: a fresh seed is drawn and logged, and a mutant module is
//     created (§III-B, §III-E).
//  3. Optimization: the configured pass pipeline runs; Go panics stand in
//     for LLVM assertion failures and are recorded as crash findings
//     (§III-C).
//  4. Refinement check: each optimized function is validated against its
//     mutated original; counterexamples are cross-checked on the concrete
//     interpreter before being reported (§III-D).
//  5. Loop until the mutant budget or the time budget is exhausted
//     (§III-E).
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/mutate"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/telemetry/spans"
	"repro/internal/tv"
)

// FindingKind classifies a discovered bug, mirroring the paper's two
// Table I categories.
type FindingKind int

// Finding kinds.
const (
	// Miscompilation: Alive2-style refinement failure.
	Miscompilation FindingKind = iota
	// Crash: abnormal optimizer termination (assertion/panic).
	Crash
)

func (k FindingKind) String() string {
	if k == Crash {
		return "crash"
	}
	return "miscompilation"
}

// Finding is one discovered bug.
type Finding struct {
	Kind     FindingKind
	Seed     uint64 // PRNG seed that regenerates the mutant (§III-E)
	Iter     int    // iteration number (0 = unmutated input)
	Func     string // function exhibiting the failure
	CEX      string // counterexample, for miscompilations
	PanicMsg string // panic payload, for crashes
	// TraceID is the mutant's lineage identifier (mutate.TraceID(Seed)) —
	// the join key between this finding, its journal bug_found event, and
	// a triage bundle.
	TraceID string
	// Lineage is the ordered operator-application trace that produced the
	// mutant, regenerated from the seed when the finding is recorded
	// (mutants are pure functions of their seed, so the hot loop never
	// pays for tracing).
	Lineage *mutate.Trace
	// Witness is the concretized counterexample (inputs plus both sides'
	// observed behaviour), for miscompilations whose model could be
	// replayed on the interpreter.
	Witness *tv.Witness
	// MutantText and OptimizedText are the .ll forms, captured only when
	// Options.SaveFindings is set (the fast path skips printing, which is
	// the point of the whole design).
	MutantText    string
	OptimizedText string
	// CrossChecked reports that the counterexample was confirmed by
	// concrete re-execution of source and target.
	CrossChecked bool
}

// Stats aggregates loop behaviour.
type Stats struct {
	Iterations  int
	Checked     int // function-level refinement checks
	Valid       int
	Invalid     int
	Unsupported int
	Unknown     int
	Crashes     int
	Dropped     []string // functions removed during preprocessing
	Elapsed     time.Duration
}

// Options configures a fuzzing run.
type Options struct {
	// Passes is the optimization pipeline specification (§III-C), e.g.
	// "O2" or "instcombine,dce". Empty means "O2".
	Passes string
	// Bugs selects seeded defects (nil = correct compiler).
	Bugs *opt.BugSet
	// Seed is the master PRNG seed; each mutant's own seed is split from
	// it and logged in findings.
	Seed uint64
	// NumMutants bounds iterations (0 = unbounded; use TimeLimit).
	NumMutants int
	// TimeLimit bounds wall-clock time (0 = unbounded; use NumMutants).
	TimeLimit time.Duration
	// StopAtFirstFinding ends the run at the first bug (campaign mode).
	StopAtFirstFinding bool
	// Stop, when non-nil, is polled before each iteration starts;
	// returning true ends the run early with the stats gathered so far.
	// The campaign scheduler uses it to propagate context cancellation
	// (deadline, SIGINT) into a running loop without losing the partial
	// report. With Workers > 1 the workers poll it, one call at a time,
	// and the iterations already started are still committed.
	Stop func() bool
	// SaveFindings captures mutant/optimized .ll text in findings.
	SaveFindings bool
	// Mutations configures the mutation engine. With Workers > 1 its
	// ObserveOp hook may be called concurrently.
	Mutations mutate.Config
	// TV configures the refinement checker. A zero ConflictBudget gets a
	// sensible default so one hard mutant cannot stall the campaign. With
	// Workers > 1 the caller's TV.Observe hook may be called concurrently.
	TV tv.Options
	// VerifyMutants runs the IR verifier on every mutant (the §II validity
	// claim); enabled in tests, off in throughput runs.
	VerifyMutants bool
	// DisableAnalysis turns off the dataflow-analysis-backed folds (known
	// bits, ranges, demanded bits) in the optimizer, restoring the
	// pattern-only pipeline. Used for A/B throughput comparisons; the
	// analysis layer is on by default.
	DisableAnalysis bool
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Telemetry, when non-nil, receives stage timings, pipeline counters,
	// and journal events (see internal/telemetry and
	// docs/OBSERVABILITY.md). It is strictly write-only — the loop never
	// reads it — so results are bit-identical with telemetry on or off.
	// In a sharded campaign this is the shard-local sink.
	Telemetry *telemetry.Sink
	// Workers is the number of goroutines that run iterations; 0 or 1
	// runs them on the calling goroutine. Seeds are still drawn in order,
	// and every iteration's stats, findings, log lines and journal events
	// are committed to the Report in iteration order, so the report is
	// the same for every worker count. New rejects Workers > 1 together
	// with StopAtFirstFinding, a spans recorder, or a TV Cache: each of
	// them depends on iterations running one at a time.
	Workers int
}

// Report is the result of a fuzzing run.
type Report struct {
	Findings []Finding
	Stats    Stats
}

// Fuzzer is a prepared fuzzing session over one module.
type Fuzzer struct {
	opts    Options
	orig    *ir.Module
	mutator *mutate.Mutator
	passes  []opt.Pass
	dropped []string

	// Telemetry handles, resolved once per session so the hot loop pays
	// only atomic adds (all nil-safe when telemetry is off). timed is
	// true when any consumer (metrics or spans) wants stage durations.
	tel             *telemetry.Collector
	spans           *spans.Recorder
	timed           bool
	ctrMutants      *telemetry.Counter
	ctrChecks       *telemetry.Counter
	ctrFast         *telemetry.Counter
	ctrCrashes      *telemetry.Counter
	histMutate      *telemetry.Histogram
	histOpt         *telemetry.Histogram
	histInterp      *telemetry.Histogram
	verdictCtr      map[tv.Verdict]*telemetry.Counter
	ruleCtrs        *lazyHandles[telemetry.Counter]
	observePass     func(pass string, d time.Duration)
	observeAnalysis func(d time.Duration)
}

// New prepares a fuzzing session: resolves the pipeline, drops functions
// the validator cannot handle or that fail validation un-mutated, and
// preprocesses the survivors for mutation.
func New(mod *ir.Module, opts Options) (*Fuzzer, error) {
	if opts.Passes == "" {
		opts.Passes = "O2"
	}
	if opts.TV.ConflictBudget == 0 {
		opts.TV.ConflictBudget = 30000
	}
	if err := checkWorkers(opts); err != nil {
		return nil, err
	}
	passes, err := opt.ByName(opts.Passes)
	if err != nil {
		return nil, err
	}
	f := &Fuzzer{opts: opts, passes: passes}
	// The gate's queries are timed as their own stage below, not folded
	// into the loop's stage.tv.
	tel := opts.Telemetry.Collector()
	preStop := tel.StartStage("preprocess")
	f.orig = preprocess(mod, passes, gateOptions(opts), &f.dropped)
	preStop()
	if len(f.orig.Defs()) == 0 {
		return nil, fmt.Errorf("core: no verifiable functions left after preprocessing (dropped %d)", len(f.dropped))
	}
	f.initTelemetry(tel)
	f.mutator = mutate.New(f.orig, f.opts.Mutations)
	return f, nil
}

// gateOptions returns the options the preprocess gate validates with:
// the caller's, with a TV.Observe that accounts for the gate's queries
// as the loop's are accounted where they share a sink. Their solver
// effort goes into sat.conflicts and sat.propagations; each query that
// reaches the solve stage counts in tv.gate.solves and, with a cache,
// as a tv.cache.hit or miss; and each query is a span at the unit's
// root. So a mutant's cache hit on a query the gate solved replays a
// solve the sinks recorded. The gate stays out of stage.tv and
// verdict.*, which measure the loop (it has its own stage.preprocess).
func gateOptions(opts Options) Options {
	tel := opts.Telemetry.Collector()
	rec := opts.Telemetry.SpansRecorder()
	if tel == nil && rec == nil {
		return opts
	}
	cacheOn := opts.TV.Cache != nil
	ctrConflicts := tel.Counter("sat.conflicts")
	ctrProps := tel.Counter("sat.propagations")
	ctrSolves := tel.Counter("tv.gate.solves")
	ctrCacheHit := tel.Counter("tv.cache.hit")
	ctrCacheMiss := tel.Counter("tv.cache.miss")
	prev := opts.TV.Observe
	opts.TV.NeedFingerprint = opts.TV.NeedFingerprint || rec != nil
	opts.TV.Observe = func(r tv.Result, d time.Duration) {
		ctrConflicts.Add(r.Conflicts)
		ctrProps.Add(r.Propagations)
		if r.ReachedSolveStage() {
			ctrSolves.Add(1)
			if cacheOn {
				if r.CacheHit {
					ctrCacheHit.Add(1)
				} else {
					ctrCacheMiss.Add(1)
				}
			}
		}
		if rec != nil {
			rec.Query(queryInfo(r, cacheOn), d)
		}
		if prev != nil {
			prev(r, d)
		}
	}
	return opts
}

// queryInfo renders one TV query's span attributes.
func queryInfo(r tv.Result, cacheOn bool) spans.QueryInfo {
	q := spans.QueryInfo{
		Verdict:      r.Verdict.String(),
		FP:           r.FP,
		Conflicts:    r.Conflicts,
		Propagations: r.Propagations,
		Static:       r.StaticOutcome,
	}
	if cacheOn && r.ReachedSolveStage() {
		q.Cache = spans.CacheMiss
		if r.CacheHit {
			q.Cache = spans.CacheHit
		}
	}
	if r.PortfolioRaced {
		q.Portfolio = portfolioWinnerLabel(r.PortfolioWinner)
	}
	return q
}

// checkWorkers rejects the options whose state depends on iterations
// running one at a time, when Workers would run them concurrently.
func checkWorkers(opts Options) error {
	if opts.Workers <= 1 {
		return nil
	}
	var what string
	switch {
	case opts.StopAtFirstFinding:
		what = "StopAtFirstFinding"
	case opts.Telemetry.SpansRecorder() != nil:
		what = "a spans recorder"
	case opts.TV.Cache != nil:
		what = "a TV verdict cache"
	default:
		return nil
	}
	return fmt.Errorf("core: %d workers cannot be combined with %s", opts.Workers, what)
}

// initTelemetry resolves every hot-loop telemetry handle once and
// installs the observation hooks in the mutation engine, the pass
// manager's context (per iteration, see iteration), and the TV checker.
// With a nil collector every handle is nil and every hook stays unset, so
// the loop's only overhead is a handful of nil tests.
func (f *Fuzzer) initTelemetry(tel *telemetry.Collector) {
	f.tel = tel
	f.spans = f.opts.Telemetry.SpansRecorder()
	f.timed = tel != nil || f.spans != nil
	if f.spans != nil {
		// Span attribution groups solver effort by query; its key (FP)
		// is verdict-neutral (see tv.Options.NeedFingerprint).
		f.opts.TV.NeedFingerprint = true
	}
	if !f.timed {
		return
	}
	f.ctrMutants = tel.Counter("mutants")
	f.ctrChecks = tel.Counter("checks")
	f.ctrFast = tel.Counter("tv.fastpath")
	f.ctrCrashes = tel.Counter("crashes")
	f.histMutate = tel.Histogram("stage.mutate")
	f.histOpt = tel.Histogram("stage.opt")
	f.histInterp = tel.Histogram("stage.interp")
	f.verdictCtr = map[tv.Verdict]*telemetry.Counter{
		tv.Valid:       tel.Counter("verdict.valid"),
		tv.Invalid:     tel.Counter("verdict.invalid"),
		tv.Unsupported: tel.Counter("verdict.unsupported"),
		tv.Unknown:     tel.Counter("verdict.unknown"),
	}

	// Per-operator counters: the hook observes draws after the PRNG has
	// been consumed, so mutation behaviour is untouched.
	opCtrs := make([]*telemetry.Counter, len(mutate.AllOps))
	for _, op := range mutate.AllOps {
		opCtrs[int(op)] = tel.Counter("mutate.op." + op.String())
	}
	prevOp := f.opts.Mutations.ObserveOp
	f.opts.Mutations.ObserveOp = func(op mutate.Op) {
		if int(op) < len(opCtrs) {
			opCtrs[int(op)].Add(1)
		}
		if prevOp != nil {
			prevOp(op)
		}
	}

	// Per-verdict TV latency histograms plus the aggregate stage.tv.
	histTV := tel.Histogram("stage.tv")
	tvHists := map[tv.Verdict]*telemetry.Histogram{
		tv.Valid:       tel.Histogram("tv.valid"),
		tv.Invalid:     tel.Histogram("tv.invalid"),
		tv.Unsupported: tel.Histogram("tv.unsupported"),
		tv.Unknown:     tel.Histogram("tv.unknown"),
	}
	// Acceleration counters (docs/PERFORMANCE.md). Cache hit/miss are
	// counted only when a cache is configured, so the pair always sums to
	// the number of queries that reached the solve stage.
	cacheOn := f.opts.TV.Cache != nil
	ctrCacheHit := tel.Counter("tv.cache.hit")
	ctrCacheMiss := tel.Counter("tv.cache.miss")
	ctrAssumptions := tel.Counter("sat.assumptions")
	ctrConflicts := tel.Counter("sat.conflicts")
	ctrProps := tel.Counter("sat.propagations")
	// Static pre-verifier accounting (docs/OBSERVABILITY.md). The rung
	// runs on every encoded query, cache hits included (the cache sits
	// at the solve stage), so its outcomes partition them; stage.stv is
	// the rung's own latency, attributed per outcome class by
	// construction (a proved query never reaches the solver).
	histSTV := tel.Histogram("stage.stv")
	staticCtrs := map[string]*telemetry.Counter{
		tv.StaticProved:  tel.Counter("tv.static.proved"),
		tv.StaticBailout: tel.Counter("tv.static.bailout"),
	}
	staticRuleCtrs := lazy(tel.Counter, "tv.static.rule.")
	// Incremental-session accounting: queries the per-class session
	// proved Valid.
	ctrSessionProved := tel.Counter("tv.session.proved")
	// Portfolio accounting: races counts queries on which the fallback
	// leg counted; the winner counters partition the races by whether its
	// proof became the verdict.
	ctrPortfolioRaces := tel.Counter("sat.portfolio.races")
	portfolioWinnerCtrs := lazy(tel.Counter, "sat.portfolio.winner.")
	prevTV := f.opts.TV.Observe
	f.opts.TV.Observe = func(r tv.Result, d time.Duration) {
		histTV.Observe(d)
		if h, ok := tvHists[r.Verdict]; ok {
			h.Observe(d)
		}
		ctrConflicts.Add(r.Conflicts)
		ctrProps.Add(r.Propagations)
		if r.StaticOutcome != "" {
			histSTV.Observe(time.Duration(r.StaticNS))
			if c, ok := staticCtrs[r.StaticOutcome]; ok {
				c.Add(1)
			}
			if r.StaticRule != "" {
				staticRuleCtrs.get(r.StaticRule).Add(1)
			}
		}
		if r.PortfolioRaced {
			ctrPortfolioRaces.Add(1)
			portfolioWinnerCtrs.get(portfolioWinnerLabel(r.PortfolioWinner)).Add(1)
		}
		if f.spans != nil {
			f.spans.Query(queryInfo(r, cacheOn), d)
		}
		if cacheOn && r.ReachedSolveStage() {
			if r.CacheHit {
				ctrCacheHit.Add(1)
			} else {
				ctrCacheMiss.Add(1)
			}
		}
		if r.AssumptionQueries > 0 {
			ctrAssumptions.Add(r.AssumptionQueries)
			ctrSessionProved.Add(1)
		}
		if prevTV != nil {
			prevTV(r, d)
		}
	}

	// Per-pass histograms, resolved lazily once per pass name (pass sets
	// are tiny and fixed, so after the first pipeline run this is one map
	// hit per pass execution).
	passHists := lazy(tel.Histogram, "pass.")
	f.observePass = func(pass string, d time.Duration) {
		passHists.get(pass).Observe(d)
	}
	f.ruleCtrs = lazy(tel.Counter, "opt.rule.")

	// Time spent inside dataflow-analysis-backed folds, as its own stage
	// so the docs/OBSERVABILITY.md overhead budget is measurable directly.
	histAnalysis := tel.Histogram("stage.analysis")
	f.observeAnalysis = func(d time.Duration) {
		histAnalysis.Observe(d)
	}
}

// lazyHandles caches telemetry handles resolved by name on first use.
// Loop workers share one, so it is safe for concurrent use; after warm-up
// a lookup is one lock-free map hit.
type lazyHandles[T any] struct {
	m       sync.Map // name → *T
	resolve func(name string) *T
}

func (l *lazyHandles[T]) get(name string) *T {
	if h, ok := l.m.Load(name); ok {
		return h.(*T)
	}
	h, _ := l.m.LoadOrStore(name, l.resolve(name))
	return h.(*T)
}

// lazy returns the handles resolve gives for prefix+name.
func lazy[T any](resolve func(string) *T, prefix string) *lazyHandles[T] {
	return &lazyHandles[T]{resolve: func(name string) *T { return resolve(prefix + name) }}
}

// portfolioWinnerLabel renders a raced query's tv.Result.PortfolioWinner
// as the label used by sat.portfolio.winner.* counters and span
// attributes: "fallback" when the fallback leg's proof rescued the query,
// "none" when both legs ran out of budget or the fallback found a model.
func portfolioWinnerLabel(winner int) string {
	if winner > 0 {
		return "fallback"
	}
	return "none"
}

// recordRuleStats folds one mutant's optimizer rule-application counts
// into the opt.rule.* counters. Handles are cached by name: pipelines fire
// a small fixed set of rules, so after warm-up this is a map hit per rule.
func (f *Fuzzer) recordRuleStats(stats map[string]int) {
	for name, n := range stats {
		f.ruleCtrs.get(name).Add(int64(n))
	}
}

// Dropped returns the names of functions removed during preprocessing.
func (f *Fuzzer) Dropped() []string { return f.dropped }

// preprocess implements §III-A: keep only functions the validator can
// encode AND whose un-mutated optimization validates. The correct
// (bug-free) optimizer is used for this gate so that seeded defects remain
// discoverable through mutation.
func preprocess(mod *ir.Module, passes []opt.Pass, opts Options, dropped *[]string) *ir.Module {
	clean := ir.NewModule()
	for _, fn := range mod.Funcs {
		if fn.IsDecl {
			clean.Add(fn.Clone())
			continue
		}
	}
	for _, fn := range mod.Defs() {
		// Optimize a copy with the *correct* compiler and validate.
		trial := mod.Clone()
		ctx := opt.NewContext(trial)
		ctx.DisableAnalysis = opts.DisableAnalysis
		ok := func() (ok bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			for _, p := range passes {
				p.Run(ctx, trial.FuncByName(fn.Name))
			}
			return true
		}()
		if !ok {
			*dropped = append(*dropped, fn.Name)
			continue
		}
		opts.Telemetry.SpansRecorder().Func(fn.Name)
		r := tv.Verify(mod, fn, trial.FuncByName(fn.Name), opts.TV)
		if r.Verdict == tv.Unsupported || r.Verdict == tv.Invalid {
			*dropped = append(*dropped, fn.Name)
			continue
		}
		clean.Add(fn.Clone())
	}
	return clean
}

// Run executes the fuzzing loop. With Options.Workers > 1 iterations run
// on that many goroutines; either way they are committed in iteration
// order, so the Report is the same for every worker count.
func (f *Fuzzer) Run() *Report {
	start := time.Now() // vet:determinism — Stats.Elapsed, reporting only
	rep := &Report{}
	rep.Stats.Dropped = f.dropped
	master := rng.New(f.opts.Seed)
	if f.opts.Workers > 1 {
		f.runWorkers(rep, start, master)
	} else {
		for iter := 1; f.more(iter, start); iter++ {
			o := f.iteration(iter, master.SplitSeed())
			if f.commit(rep, &o) {
				break
			}
		}
	}
	rep.Stats.Elapsed = time.Since(start)
	return rep
}

// more reports whether iteration iter may start: the mutant budget, the
// time budget and the Stop hook are all checked before its seed is drawn.
func (f *Fuzzer) more(iter int, start time.Time) bool {
	switch {
	case f.opts.NumMutants > 0 && iter > f.opts.NumMutants:
		return false
	case f.opts.TimeLimit > 0 && time.Since(start) >= f.opts.TimeLimit:
		return false
	case f.opts.Stop != nil && f.opts.Stop():
		return false
	}
	return true
}

// aheadPerWorker bounds, per worker, how far the workers may run ahead
// of the oldest uncommitted iteration. Query times are heavy-tailed (on
// alive-mutate's generated inputs one query can cost as much as the other
// few hundred together), so the bound must let the other workers go on
// while one solves it; an outcome waiting for its commit holds only its
// counts and findings.
const aheadPerWorker = 256

// runWorkers is Run's loop on Options.Workers goroutines. Each worker
// takes the next iteration as the serial loop does: under the lock it
// checks the limits (more) and draws the next seed from master, then runs
// the iteration at once. The calling goroutine commits the outcomes in
// iteration order. It takes the first iteration itself, so a run whose
// limits allow none starts no goroutine. A panic in an iteration is
// re-raised here when that iteration's turn to commit comes, so it is the
// earliest one's, as in the serial loop.
func (f *Fuzzer) runWorkers(rep *Report, start time.Time, master *rng.Rand) {
	if !f.more(1, start) {
		return
	}
	window := aheadPerWorker * f.opts.Workers
	var (
		mu sync.Mutex
		// Iterations 1..taken have been taken, 1..committed committed;
		// ring[i%window] holds iteration i's outcome until its commit.
		taken, committed = 1, 0
		ended            bool // no further iteration will be taken
		ring             = make([]*outcome, window)
		arrived          = sync.NewCond(&mu) // an outcome arrived, or ended
		room             = sync.NewCond(&mu) // the window has room, or ended
		wg               sync.WaitGroup
	)
	take := func() (iter int, seed uint64, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		for !ended && taken-committed >= window {
			room.Wait()
		}
		// The check and the draw are one step, as in the serial loop, so
		// Stop is polled under the lock: one call at a time, in order.
		if ended || !f.more(taken+1, start) {
			ended = true
			arrived.Signal()
			return 0, 0, false
		}
		taken++
		return taken, master.SplitSeed(), true
	}
	work := func(iter int, seed uint64, ok bool) {
		defer wg.Done()
		for ; ok; iter, seed, ok = take() {
			o := f.recoveredIteration(iter, seed)
			mu.Lock()
			ring[iter%window] = &o
			mu.Unlock()
			arrived.Signal()
		}
	}
	// On return, and on a re-raised panic, no further iteration is taken
	// and the running ones finish, so no worker outlives Run.
	defer func() {
		mu.Lock()
		ended = true
		mu.Unlock()
		room.Broadcast()
		wg.Wait()
	}()
	wg.Add(f.opts.Workers)
	go work(1, master.SplitSeed(), true)
	for i := 1; i < f.opts.Workers; i++ {
		go func() { work(take()) }()
	}
	for i := 1; ; i++ {
		mu.Lock()
		for ring[i%window] == nil && !(ended && i > taken) {
			arrived.Wait()
		}
		o := ring[i%window]
		ring[i%window] = nil
		mu.Unlock()
		if o == nil {
			return
		}
		if o.panicked != nil {
			panic(o.panicked)
		}
		f.commit(rep, o)
		mu.Lock()
		committed = i
		mu.Unlock()
		room.Signal()
	}
}

// outcome is everything one iteration contributes to the Report, held
// apart from it so that iterations can run on workers while commit folds
// them in in iteration order.
type outcome struct {
	iter     int
	stats    Stats // the counts only
	findings []Finding
	events   []telemetry.Event
	log      []string
	found    bool
	panicked any // a worker's recovered panic, for runWorkers to re-raise
}

// commit folds one iteration's outcome into the report, the journal and
// the log; it reports whether the run should stop at this finding.
func (f *Fuzzer) commit(rep *Report, o *outcome) bool {
	s := &rep.Stats
	s.Iterations = o.iter
	s.Checked += o.stats.Checked
	s.Valid += o.stats.Valid
	s.Invalid += o.stats.Invalid
	s.Unsupported += o.stats.Unsupported
	s.Unknown += o.stats.Unknown
	s.Crashes += o.stats.Crashes
	rep.Findings = append(rep.Findings, o.findings...)
	for _, ev := range o.events {
		f.opts.Telemetry.Emit(ev)
	}
	for _, line := range o.log {
		io.WriteString(f.opts.Log, line)
	}
	return o.found && f.opts.StopAtFirstFinding
}

// recoveredIteration runs one iteration on a worker, carrying a panic
// back to the committing goroutine instead of crashing the process.
func (f *Fuzzer) recoveredIteration(iter int, seed uint64) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{iter: iter, panicked: r}
		}
	}()
	return f.iteration(iter, seed)
}

// iteration performs one mutate→optimize→verify cycle and returns its
// outcome. It writes nothing to the Report, the journal or the log, so it
// may run on any goroutine: counters and histograms are atomic, and the
// spans recorder it also feeds is refused with workers (checkWorkers). Stage
// timings are taken manually (paired time.Now calls gated on f.timed)
// rather than through closures: this is the hot loop, and a closure per
// stage per mutant is an allocation the throughput experiment would
// notice.
func (f *Fuzzer) iteration(iter int, seed uint64) outcome {
	o := outcome{iter: iter}
	var t0 time.Time
	if f.timed {
		f.ctrMutants.Add(1)
		f.spans.BeginMutant(iter, seed)
		t0 = time.Now() // vet:determinism — stage timer, telemetry only
	}
	mutant := f.mutator.Mutate(seed)
	if f.timed {
		d := time.Since(t0)
		f.histMutate.Observe(d)
		f.spans.Stage(spans.StageMutate, d)
	}
	if f.opts.VerifyMutants {
		if err := mutant.Verify(); err != nil {
			// A mutation-engine defect, not a compiler bug: surface hard.
			panic(fmt.Sprintf("core: invalid mutant from seed %#x: %v", seed, err))
		}
	}

	// Optimize a deep copy, capturing optimizer crashes.
	optimized := mutant.Clone()
	ctx := opt.NewContext(optimized)
	if f.opts.Bugs != nil {
		ctx.Bugs = f.opts.Bugs
	}
	ctx.ObservePass = f.observePass
	ctx.ObserveAnalysis = f.observeAnalysis
	ctx.DisableAnalysis = f.opts.DisableAnalysis
	var crashMsg string
	if f.timed {
		t0 = time.Now() // vet:determinism — stage timer, telemetry only
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				crashMsg = fmt.Sprint(r)
			}
		}()
		opt.RunPasses(ctx, f.passes)
	}()
	if f.timed {
		d := time.Since(t0)
		f.histOpt.Observe(d)
		f.spans.Stage(spans.StageOpt, d)
		f.recordRuleStats(ctx.Stats)
	}
	if crashMsg != "" {
		o.stats.Crashes++
		f.ctrCrashes.Add(1)
		fd := Finding{
			Kind: Crash, Seed: seed, Iter: iter, PanicMsg: crashMsg,
			TraceID: mutate.TraceID(seed),
		}
		_, fd.Lineage = f.mutator.MutateTraced(seed)
		if f.opts.SaveFindings {
			fd.MutantText = mutant.String()
		}
		o.findings = append(o.findings, fd)
		f.emit(&o, telemetry.Event{
			Type: "bug_found", Seed: seed, Iters: iter,
			Detail: "crash: " + crashMsg, Trace: fd.TraceID,
		})
		f.logf(&o, "iter %d seed %#x: CRASH: %s", iter, seed, crashMsg)
		f.spans.EndMutant(true)
		o.found = true
		return o
	}

	for _, fn := range optimized.Defs() {
		src := mutant.FuncByName(fn.Name)
		if src == nil {
			continue
		}
		o.stats.Checked++
		f.ctrChecks.Add(1)
		// Fast path: when the pipeline left the function textually
		// unchanged, refinement holds trivially — no solver query needed.
		// A large share of mutants are not touched by the optimizer, so
		// this materially raises fuzzing throughput.
		if fn.String() == src.String() {
			o.stats.Valid++
			f.ctrFast.Add(1)
			continue
		}
		f.spans.Func(fn.Name)
		r := tv.Verify(mutant, src, fn, f.opts.TV)
		if f.tel != nil {
			f.verdictCtr[r.Verdict].Add(1)
		}
		if r.Verdict != tv.Valid {
			// Valid is the overwhelming majority; journaling only the
			// interesting verdicts keeps the journal proportional to
			// campaign *events*, not campaign *size*.
			f.emit(&o, telemetry.Event{
				Type: "tv_verdict", Seed: seed, Iters: iter,
				Unit: fn.Name, Detail: r.Verdict.String(),
			})
		}
		switch r.Verdict {
		case tv.Valid:
			o.stats.Valid++
		case tv.Unsupported:
			o.stats.Unsupported++
		case tv.Unknown:
			o.stats.Unknown++
		case tv.Invalid:
			o.stats.Invalid++
			fd := Finding{
				Kind: Miscompilation, Seed: seed, Iter: iter, Func: fn.Name,
				TraceID: mutate.TraceID(seed),
			}
			_, fd.Lineage = f.mutator.MutateTraced(seed)
			if r.CEX != nil {
				fd.CEX = r.CEX.String()
				if f.timed {
					t0 = time.Now() // vet:determinism — stage timer, telemetry only
				}
				fd.Witness = r.CEX.Concretize(mutant, optimized, src, fn)
				fd.CrossChecked = fd.Witness.Confirmed
				if f.timed {
					d := time.Since(t0)
					f.histInterp.Observe(d)
					f.spans.Stage(spans.StageInterp, d)
				}
			}
			if f.opts.SaveFindings {
				fd.MutantText = mutant.String()
				fd.OptimizedText = optimized.String()
			}
			o.findings = append(o.findings, fd)
			f.emit(&o, telemetry.Event{
				Type: "bug_found", Seed: seed, Iters: iter, Unit: fn.Name,
				Detail: "miscompilation", Trace: fd.TraceID,
			})
			f.logf(&o, "iter %d seed %#x: MISCOMPILE @%s (%s)", iter, seed, fn.Name, fd.CEX)
			o.found = true
		}
	}
	f.spans.EndMutant(o.found)
	return o
}

// emit queues a journal event for the iteration's commit.
func (f *Fuzzer) emit(o *outcome, ev telemetry.Event) {
	if f.opts.Telemetry != nil {
		o.events = append(o.events, ev)
	}
}

// logf queues a progress line for the iteration's commit.
func (f *Fuzzer) logf(o *outcome, format string, args ...any) {
	if f.opts.Log != nil {
		o.log = append(o.log, fmt.Sprintf(format+"\n", args...))
	}
}

// Replay regenerates the exact mutant for a logged seed — the §III-E
// repeatability workflow ("re-run with the same seed but with file-saving
// turned on").
func (f *Fuzzer) Replay(seed uint64) *ir.Module {
	return f.mutator.Mutate(seed)
}

// ReplayTraced regenerates a logged seed's mutant together with its
// lineage trace.
func (f *Fuzzer) ReplayTraced(seed uint64) (*ir.Module, *mutate.Trace) {
	return f.mutator.MutateTraced(seed)
}

// Orig exposes the preprocessed original module (the seed the mutants
// diverge from) — triage writes it into reproducer bundles.
func (f *Fuzzer) Orig() *ir.Module { return f.orig }
