// The Table-I bug-finding campaign (paper §V-A) on top of the sharded
// engine: one group per seeded defect, one unit per (bug × seed test),
// with the per-bug mutant budget threaded through the group chain exactly
// as the original serial driver spent it. That invariant is what makes
// `-workers 1` reproduce the serial driver's table byte-for-byte and
// `-workers N` reproduce the same found/missed census and mutant counts
// in less wall-clock time — and, because every unit's result is a pure
// function of its seed and its chained predecessor, it is also what makes
// a checkpointed campaign resumable with byte-identical output
// (docs/CHECKPOINTING.md).

package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/telemetry"
	"repro/internal/telemetry/spans"
	"repro/internal/triage"
	"repro/internal/tv"
)

// BugConfig configures a bug-finding campaign over the seeded registry.
type BugConfig struct {
	Budget   int    // max mutants per bug across its seed tests
	TVBudget int64  // SAT conflict budget per refinement query
	Seed     uint64 // campaign master seed
	Passes   string // optimization pipeline, e.g. "O2"
	Workers  int    // worker goroutines; <= 0 means runtime.NumCPU()
	Deadline time.Duration
	// Only, when non-empty, restricts the campaign to these issues
	// (small deterministic campaigns for tests and CI smoke runs).
	Only []int
	// Progress, when non-nil, receives each bug's row as its group
	// completes (including groups restored whole from a checkpoint).
	// Calls are serialized.
	Progress func(BugRow)
	// Stderr receives seed-parse warnings (default os.Stderr).
	Stderr io.Writer
	// Telemetry, when non-nil, receives metrics and journal events. Each
	// unit records into a shard-local collector merged into
	// Telemetry.Metrics when the unit finishes, so the hot loop never
	// contends on the run-wide registry and campaign results stay
	// byte-identical with telemetry on or off.
	Telemetry *telemetry.Sink
	// Spans, when non-nil, receives each unit's cost-attribution span
	// delta (see internal/telemetry/spans). Like Telemetry it is strictly
	// write-only and excluded from the checkpoint fingerprint; deltas are
	// checkpointed with their unit and replayed on resume, so a resumed
	// campaign's spans file matches an uninterrupted run's. Resuming with
	// spans on from a checkpoint written with spans off loses the
	// restored units' attribution (their deltas were never recorded).
	Spans *spans.Store
	// StallThreshold arms the engine's per-unit stall watchdog (0 = off).
	StallThreshold time.Duration
	// NoAnalysis disables the optimizer's dataflow-analysis-backed folds
	// for the whole campaign (A/B comparisons; analysis is on by default).
	NoAnalysis bool
	// Triage, when non-nil, receives every finding as a triage candidate
	// (units then run with finding capture on, which changes nothing but
	// what findings carry). Like Telemetry it is strictly write-only: the
	// campaign never reads it, so result tables stay byte-identical with
	// triage on or off at any worker count. Bundles are written by the
	// caller via Triage.Flush after the campaign ends.
	Triage *triage.Sink

	// CheckpointDir, when non-empty, enables durable checkpointing: the
	// coordinator writes CheckpointFile under this directory at start,
	// periodically as units complete, and once more before RunBugs
	// returns (docs/CHECKPOINTING.md).
	CheckpointDir string
	// CheckpointInterval is the minimum gap between periodic checkpoint
	// writes; <= 0 writes after every unit completion.
	CheckpointInterval time.Duration
	// Resume loads CheckpointDir's checkpoint before running and
	// continues the campaign from it. The checkpoint must have been
	// written by a campaign with the same result-affecting configuration
	// (any worker count is fine); the resumed run's final table and
	// triage bundles are byte-identical to an uninterrupted run's.
	Resume bool
	// StopAfterUnits is a fault-injection hook for resume tests: after
	// this many unit completions the engine checkpoints and cancels,
	// simulating a kill at an injected cut point. 0 disables the hook.
	StopAfterUnits int

	// NoTVCache disables the per-unit refinement-verdict cache. The
	// default (cache on) replays the solve stage's Valid and budget
	// Unknown results across the mutants of one unit execution, keyed on
	// the encoded query (tv.Cache); because each unit gets a fresh
	// cache, hit/miss counts — not just verdicts — are deterministic at
	// any worker count (docs/PERFORMANCE.md).
	NoTVCache bool
	// NoIncremental disables assumption-based incremental SAT solving of
	// the per-class refinement queries (A/B comparisons; on by default).
	NoIncremental bool
	// NoStaticTV disables the static refinement pre-verifier (on by
	// default), sending every encoded query on to the solve stage.
	// The rung only short-circuits provable Valids, so tables, witness
	// logs, and triage trees are byte-identical either way; like the
	// other acceleration modes it is excluded from the checkpoint
	// fingerprint (docs/ANALYSIS.md).
	NoStaticTV bool
	// Portfolio turns on the fallback leg that re-solves budget-bound
	// monolithic queries (tv.Options.Portfolio): 2 or more means on,
	// anything less off. It is an int only because perfbench/trace sets
	// it to 3. The campaign commands default to DefaultPortfolio.
	Portfolio int
}

// DefaultPortfolio turns the fallback leg on; the campaign commands
// (fuzz-campaign, campaign-profile) run with it unless told otherwise.
const DefaultPortfolio = 2

// tvOptions resolves one unit execution's TV configuration. It is called
// from each unit's Run closure, so the verdict cache is per unit:
// shard-local state keeps hit counts a pure function of the seed's
// mutant sequence at any -workers.
func (cfg BugConfig) tvOptions() tv.Options {
	o := tv.Options{
		ConflictBudget: cfg.TVBudget,
		Incremental:    !cfg.NoIncremental,
		Static:         !cfg.NoStaticTV,
		Portfolio:      cfg.Portfolio,
	}
	if !cfg.NoTVCache {
		o.Cache = tv.NewCache()
	}
	return o
}

// fingerprint digests every configuration knob that can change the
// campaign's results. A checkpoint only resumes under a matching
// fingerprint; knobs that can never change results (workers, telemetry,
// TV acceleration modes) are deliberately excluded so a campaign can
// resume at a different parallelism or observability setting.
func (cfg BugConfig) fingerprint() string {
	only := append([]int(nil), cfg.Only...)
	sort.Ints(only)
	return fmt.Sprintf("budget=%d tvbudget=%d seed=%d passes=%s only=%v analysis=%t triage=%t",
		cfg.Budget, cfg.TVBudget, cfg.Seed, cfg.Passes, only, !cfg.NoAnalysis, cfg.Triage != nil)
}

// BugRow is one bug's outcome — a row of table1.txt.
type BugRow struct {
	Info  opt.Info
	Found bool
	Iters int     // mutants to first finding, or total spent if missed
	Kind  string  // evidence kind when found
	SeedT string  // seed test that produced the finding
	Secs  float64 // summed unit execution time (≈ CPU seconds for the bug)
}

// BugReport is the campaign result.
type BugReport struct {
	Rows        []BugRow
	Found       int
	Miscompiles int
	Crashes     int
	Interrupted bool // the campaign was cancelled; Rows are partial
	Restored    int  // units restored from a checkpoint instead of run
	Agg         *Agg
}

// bugState is the chained per-group state: the serial driver's `spent`
// accumulator plus the first finding, threaded unit to unit. Fields are
// exported for checkpoint serialization.
type bugState struct {
	Spent        int    `json:"spent"`
	Row          BugRow `json:"row"`
	BudgetLogged bool   `json:"budget_logged,omitempty"` // budget_exhausted journaled once per group
}

// bugUnitRes is one unit's checkpointable result: the chained group
// state plus this unit's own side-effect deltas — the loop stats folded
// into the aggregate and the triage candidates it produced — which a
// resume replays instead of re-running the unit.
type bugUnitRes struct {
	State bugState `json:"state"`
	// Ran distinguishes units that executed a fuzzing loop from units
	// that only forwarded state (budget pre-exhausted, unsupported or
	// unparsable seed) and so have no stats to replay.
	Ran      bool               `json:"ran,omitempty"`
	Stats    core.Stats         `json:"stats"`
	Findings int                `json:"findings,omitempty"`
	Triage   []triage.Candidate `json:"triage,omitempty"`
	// Spans is the unit's cost-attribution delta, recorded only when the
	// campaign ran with a span store; replayed into the store on resume.
	Spans *spans.UnitSpans `json:"spans,omitempty"`
}

// chainOf extracts the chained group state from an engine prev value.
func chainOf(prev any) bugState {
	if prev == nil {
		return bugState{}
	}
	return prev.(bugUnitRes).State
}

// RunBugs executes the campaign. It always returns a report when the
// campaign ran — on cancellation a partial one, with Interrupted set.
// The error is non-nil when resume or checkpointing fails; a nil report
// with a non-nil error means the campaign never started.
func RunBugs(ctx context.Context, cfg BugConfig) (*BugReport, error) {
	if cfg.Passes == "" {
		cfg.Passes = "O2"
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	// Apply the deadline here rather than inside the engine so that
	// expiry is visible on ctx and reported as Interrupted.
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	only := map[int]bool{}
	for _, issue := range cfg.Only {
		only[issue] = true
	}
	suite := corpus.TargetedTests()
	agg := NewAgg()

	var infos []opt.Info
	infoOf := map[string]opt.Info{}
	var units []Unit
	for _, info := range opt.Registry {
		if len(only) > 0 && !only[info.Issue] {
			continue
		}
		infos = append(infos, info)
		infoOf[groupName(info)] = info
		units = append(units, bugUnits(info, suite, cfg, agg)...)
	}

	meta := CheckpointMeta{Kind: "bugs", Fingerprint: cfg.fingerprint(), Units: len(units)}
	var ckpt *CheckpointConfig
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		ckpt = &CheckpointConfig{
			Path:     filepath.Join(cfg.CheckpointDir, CheckpointFile),
			Interval: cfg.CheckpointInterval,
			Meta:     meta,
			Encode:   func(res any) ([]byte, error) { return json.Marshal(res.(bugUnitRes)) },
		}
	}

	rep := &BugReport{Agg: agg}
	var restored []RestoredUnit
	if cfg.Resume {
		if cfg.CheckpointDir == "" {
			return nil, fmt.Errorf("checkpoint: resume requires a checkpoint directory")
		}
		cp, err := LoadCheckpoint(filepath.Join(cfg.CheckpointDir, CheckpointFile))
		if err != nil {
			return nil, err
		}
		if cp.Meta.Kind != meta.Kind || cp.Meta.Fingerprint != meta.Fingerprint {
			return nil, fmt.Errorf("checkpoint was written by a different campaign configuration:\n  checkpoint: %s %q\n  this run:   %s %q",
				cp.Meta.Kind, cp.Meta.Fingerprint, meta.Kind, meta.Fingerprint)
		}
		if cp.Meta.Units != meta.Units {
			return nil, fmt.Errorf("checkpoint describes %d campaign unit(s), this configuration has %d (registry or corpus changed?)",
				cp.Meta.Units, meta.Units)
		}
		for _, rec := range cp.Records {
			var res bugUnitRes
			if err := json.Unmarshal(rec.State, &res); err != nil {
				return nil, fmt.Errorf("checkpoint: unit %s/%d state undecodable: %w", rec.Group, rec.Index, err)
			}
			// Replay the unit's side effects: its loop stats into the
			// aggregate and its findings into the triage sink. The
			// fuzzing work itself is never repeated.
			if res.Ran {
				agg.Record(rec.Group, res.Stats, res.Findings)
			}
			for _, c := range res.Triage {
				cfg.Triage.Add(c)
			}
			cfg.Spans.Add(res.Spans)
			restored = append(restored, RestoredUnit{Record: rec, Res: res})
		}
		if cp.Metrics != nil {
			cfg.Telemetry.Collector().MergeSnapshot(cp.Metrics)
		}
		rep.Restored = len(restored)
		cfg.Telemetry.Collector().Add("checkpoint.restored_units", int64(len(restored)))
		emit(cfg.Telemetry, telemetry.Event{
			Type:   "campaign_resumed",
			Shard:  -1,
			Detail: fmt.Sprintf("restored=%d/%d units", len(restored), len(units)),
		})
	}

	emit(cfg.Telemetry, telemetry.Event{
		Type:   "campaign_start",
		Shard:  -1,
		Detail: fmt.Sprintf("bugs=%d units=%d budget=%d workers=%d seed=%d", len(infos), len(units), cfg.Budget, cfg.Workers, cfg.Seed),
	})
	rowDone := map[string]BugRow{}
	var mu sync.Mutex
	opts := Options{
		Workers:        cfg.Workers,
		Telemetry:      cfg.Telemetry,
		StallThreshold: cfg.StallThreshold,
		Checkpoint:     ckpt,
		Restore:        restored,
		StopAfterUnits: cfg.StopAfterUnits,
		GroupProgress: func(group string, prev any) telemetry.GroupProgress {
			st := chainOf(prev)
			gp := telemetry.GroupProgress{Spent: int64(st.Spent), Total: int64(cfg.Budget)}
			if st.Row.Found {
				gp.Found = true
				gp.Detail = fmt.Sprintf("%s after %d mutants (%s)", st.Row.Kind, st.Row.Iters, st.Row.SeedT)
			}
			return gp
		},
		OnGroupDone: func(group string, outcomes []Outcome) {
			// The last executed unit's state carries the group's result.
			st := bugState{}
			var secs float64
			for i := range outcomes {
				o := &outcomes[i]
				secs += o.Elapsed().Seconds()
				if !o.Skipped && o.Res != nil {
					st = o.Res.(bugUnitRes).State
				}
			}
			// Only a finding sets the row's Info, so a missed bug's row
			// needs it here for the progress line.
			st.Row.Info = infoOf[group]
			st.Row.Secs = secs
			if !st.Row.Found {
				st.Row.Iters = st.Spent
			}
			mu.Lock()
			rowDone[group] = st.Row
			mu.Unlock()
			if cfg.Progress != nil {
				cfg.Progress(st.Row)
			}
		},
	}
	_, err := Run(ctx, units, opts)
	rep.Interrupted = ctx.Err() != nil

	// Assemble rows in registry order regardless of completion order.
	for _, info := range infos {
		row := rowDone[groupName(info)]
		row.Info = info // set even for groups that never ran a unit
		rep.Rows = append(rep.Rows, row)
		if row.Found {
			rep.Found++
			if row.Kind == core.Crash.String() {
				rep.Crashes++
			} else {
				rep.Miscompiles++
			}
		}
	}
	detail := fmt.Sprintf("found=%d/%d miscompiles=%d crashes=%d", rep.Found, len(rep.Rows), rep.Miscompiles, rep.Crashes)
	if rep.Interrupted {
		detail += " interrupted"
	}
	emit(cfg.Telemetry, telemetry.Event{Type: "campaign_finish", Shard: -1, Detail: detail})
	return rep, err
}

func groupName(info opt.Info) string {
	return fmt.Sprintf("%d", info.Issue)
}

// bugUnits decomposes one bug's campaign into its chain of units: seed
// tests near the bug first, the rest of the suite after (the corpus
// ordering), each unit spending its share of the budget and handing the
// accumulator to the next. The budget split — half the budget for each
// tagged seed, an eighth for each untagged one, clipped to what remains —
// matches the serial driver exactly.
func bugUnits(info opt.Info, suite []corpus.NamedTest, cfg BugConfig, agg *Agg) []Unit {
	group := groupName(info)
	var units []Unit
	for unitIdx, t := range corpus.OrderedFor(suite, info.Issue) {
		t := t
		unitIdx := unitIdx
		tagged := t.Near(info.Issue)
		units = append(units, Unit{
			Group: group,
			Name:  t.Name,
			Seed:  cfg.Seed ^ uint64(info.Issue),
			Run: func(ctx context.Context, prev any) (any, bool, error) {
				st := chainOf(prev)
				if st.Spent >= cfg.Budget {
					if !st.BudgetLogged {
						st.BudgetLogged = true
						emit(cfg.Telemetry, telemetry.Event{
							Type: "budget_exhausted", Shard: WorkerID(ctx),
							Group: group, Iters: st.Spent,
						})
					}
					return bugUnitRes{State: st}, true, nil
				}
				n := cfg.Budget / 2
				if !tagged {
					n = cfg.Budget / 8
				}
				if st.Spent+n > cfg.Budget {
					n = cfg.Budget - st.Spent
				}
				// Shard-local telemetry: a fresh collector per unit, merged
				// into the run-wide one when the unit's loop finishes. The
				// cost-attribution recorder (nil when spans are off) rides
				// on the shard sink for this one unit.
				rec := cfg.Spans.NewRecorder(group, t.Name, unitIdx, cfg.Seed^uint64(info.Issue))
				shard := cfg.Telemetry.ShardSink(WorkerID(ctx))
				if rec != nil {
					if shard == nil {
						shard = &telemetry.Sink{Shard: WorkerID(ctx)}
					}
					shard.Spans = rec
				}
				parseStop := shard.Collector().StartStage("parse")
				mod, err := parser.Parse(t.Text)
				parseStop()
				if err != nil {
					cfg.Telemetry.Collector().Merge(shard.Collector())
					fmt.Fprintf(cfg.Stderr, "fuzz-campaign: seed %s: %v\n", t.Name, err)
					return bugUnitRes{State: st}, false, err
				}
				bugs := (&opt.BugSet{}).Enable(info.ID)
				fz, err := core.New(mod, core.Options{
					Passes:             cfg.Passes,
					Bugs:               bugs,
					Seed:               cfg.Seed ^ uint64(info.Issue),
					NumMutants:         n,
					StopAtFirstFinding: true,
					// Triage needs the mutant/optimized .ll text; capture
					// changes only what findings carry, never the loop's
					// draws or verdicts, so tables stay byte-identical.
					SaveFindings:    cfg.Triage != nil,
					TV:              cfg.tvOptions(),
					Stop:            func() bool { return ctx.Err() != nil },
					Telemetry:       shard,
					DisableAnalysis: cfg.NoAnalysis,
				})
				if err != nil {
					cfg.Telemetry.Collector().Merge(shard.Collector())
					return bugUnitRes{State: st}, false, nil // whole seed unsupported for this pipeline
				}
				r := fz.Run()
				cfg.Telemetry.Collector().Merge(shard.Collector())
				st.Spent += r.Stats.Iterations
				agg.Record(group, r.Stats, len(r.Findings))
				res := bugUnitRes{Ran: true, Stats: r.Stats, Findings: len(r.Findings)}
				if rec != nil {
					res.Spans = rec.Finish(int64(r.Stats.Iterations), st.Spent >= cfg.Budget)
					cfg.Spans.Add(res.Spans)
				}
				if cfg.Triage != nil {
					for _, fd := range r.Findings {
						c := triage.Candidate{
							Finding:  fd,
							Group:    group,
							Unit:     t.Name,
							UnitIdx:  unitIdx,
							Issue:    info.Issue,
							Passes:   cfg.Passes,
							TVBudget: cfg.TVBudget,
							SeedText: t.Text,
						}
						cfg.Triage.Add(c)
						res.Triage = append(res.Triage, c)
					}
				}
				if len(r.Findings) > 0 {
					fd := r.Findings[0]
					st.Row = BugRow{
						Info:  info,
						Found: true,
						Iters: st.Spent - r.Stats.Iterations + fd.Iter,
						Kind:  fd.Kind.String(),
						SeedT: t.Name,
					}
					res.State = st
					return res, true, nil
				}
				if st.Spent >= cfg.Budget && !st.BudgetLogged {
					st.BudgetLogged = true
					emit(cfg.Telemetry, telemetry.Event{
						Type: "budget_exhausted", Shard: WorkerID(ctx),
						Group: group, Iters: st.Spent,
					})
				}
				res.State = st
				if ctx.Err() != nil {
					return res, true, nil // cancelled mid-unit: partial spend recorded
				}
				return res, false, nil
			},
		})
	}
	return units
}

// Table renders the report in the table1.txt format. For an
// uninterrupted `-workers 1` run this is byte-identical to the historical
// serial driver's output; for any worker count — and for any
// kill-and-resume sequence through a checkpoint — the found/missed census
// and mutant counts are identical too.
func (rep *BugReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "LLVM BUGS FOUND USING ALIVE-MUTATE (reproduction census, cf. paper Table I)\n\n")
	fmt.Fprintf(&b, "%-8s %-26s %-14s %-10s %-8s %-22s %s\n",
		"Issue", "Component (paper)", "Type", "Status", "Mutants", "Seed test", "Description")
	for _, r := range rep.Rows {
		status, iters := "missed", fmt.Sprintf(">%d", r.Iters)
		if r.Found {
			status, iters = "found", fmt.Sprintf("%d", r.Iters)
		}
		fmt.Fprintf(&b, "%-8d %-26s %-14s %-10s %-8s %-22s %s\n",
			r.Info.Issue, r.Info.PaperComp, r.Info.Kind, status, iters, r.SeedT, r.Info.Desc)
	}
	fmt.Fprintf(&b, "\nTotals: %d/%d bugs found (%d miscompilations, %d crashes)\n",
		rep.Found, len(rep.Rows), rep.Miscompiles, rep.Crashes)
	fmt.Fprintf(&b, "Paper reports: 33 bugs (19 miscompilations, 14 crashes)\n")
	if rep.Interrupted {
		fmt.Fprintf(&b, "NOTE: campaign interrupted; table reflects partial budgets.\n")
	}
	return b.String()
}

// ProgressLine formats the per-bug progress line the campaign driver
// prints as each group completes.
func (r BugRow) ProgressLine() string {
	status := "NOT FOUND"
	if r.Found {
		status = fmt.Sprintf("found as %s after %d mutants (seed test %s)", r.Kind, r.Iters, r.SeedT)
	}
	return fmt.Sprintf("%6d %-26s %-14s %s (%.1fs)",
		r.Info.Issue, r.Info.PaperComp, r.Info.Kind, status, r.Secs)
}
