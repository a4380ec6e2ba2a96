// Command trace replays one benchmark workload in-process and times the
// calls into each layer's public functions: core.New,
// (*mutate.Mutator).Mutate, opt.RunPasses, tv.Verify and, for the
// §V-B comparison, (*discrete.Pipeline).Iteration. It mirrors what
// fuzz-campaign (-workers 1) and alive-mutate do with the same flags, so
// its verdict census must equal theirs; run.py checks that before it
// publishes any per-layer number.
//
// Usage:
//
//	trace -mode campaign -only 53252,55129 -budget 660 -tvbudget 4000 -seeds 7
//	trace -mode files -n 500 -seeds 1,1 [-discrete-bin DIR -discrete-n 20] a.ll b.ll
//
// It writes one JSON document (see output) to standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/discrete"
	"repro/internal/ir"
	"repro/internal/moduleio"
	"repro/internal/mutate"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/rng"
	"repro/internal/tv"
)

// census is the verdict census of one command invocation, in the terms
// of core.Stats: Valid includes the fast path (optimizer left the
// function textually unchanged), which Fastpath counts on its own.
type census struct {
	Mutants     int `json:"mutants"`
	Checks      int `json:"checks"`
	Valid       int `json:"valid"`
	Invalid     int `json:"invalid"`
	Unsupported int `json:"unsupported"`
	Unknown     int `json:"unknown"`
	Fastpath    int `json:"fastpath"`
	Crashes     int `json:"crashes"`
}

// step is what one TV rung decided and the Verify time it took.
type step struct {
	Queries int   `json:"queries"`
	NS      int64 `json:"ns"`
}

// layers accumulates the timed calls of a whole replay.
type layers struct {
	CoreNewNS    int64 `json:"core_new_ns"`
	MutateNS     int64 `json:"mutate_ns"`
	OptNS        int64 `json:"opt_ns"`
	OptCrashes   int   `json:"opt_crashes"`
	LoopNS       int64 `json:"loop_ns"`
	VerifyNS     int64 `json:"verify_ns"`
	UnknownNS    int64 `json:"unknown_ns"`
	NoSearch     int   `json:"nosearch"`
	Conflicts    int64 `json:"conflicts"`
	Propagations int64 `json:"propagations"`
	// SearchNS is the Verify time of the queries that searched (made at
	// least one propagation or conflict).
	SearchNS         int64            `json:"search_ns"`
	QueryNS          []int64          `json:"query_ns"`
	Steps            map[string]*step `json:"steps"`
	PortfolioRescued int              `json:"portfolio_rescued"`
}

// Steps a query can be decided by, in cascade order.
var stepNames = []string{"cache", "static", "srcenc", "session", "monolithic", "portfolio"}

func newLayers() *layers {
	l := &layers{Steps: map[string]*step{}}
	for _, s := range stepNames {
		l.Steps[s] = &step{}
	}
	return l
}

// decidingStep names the rung whose result became the query's verdict.
// Unsupported verdicts come from encoding and count as monolithic.
func decidingStep(r tv.Result) string {
	switch {
	case r.CacheHit:
		return "cache"
	case r.StaticOutcome == tv.StaticProved:
		return "static"
	case r.SrcEncProved:
		return "srcenc"
	case r.AssumptionQueries > 0:
		return "session"
	case r.PortfolioRaced:
		return "portfolio"
	default:
		return "monolithic"
	}
}

func (l *layers) query(r tv.Result, d time.Duration) {
	ns := int64(d)
	l.VerifyNS += ns
	l.QueryNS = append(l.QueryNS, ns)
	s := l.Steps[decidingStep(r)]
	s.Queries++
	s.NS += ns
	if r.PortfolioRaced && r.PortfolioWinner > 0 {
		l.PortfolioRescued++
	}
	if r.Verdict == tv.Unknown {
		l.UnknownNS += ns
	}
	l.Conflicts += r.Conflicts
	l.Propagations += r.Propagations
	if r.Conflicts == 0 && r.Propagations == 0 {
		l.NoSearch++
	} else {
		l.SearchNS += ns
	}
}

// loop mirrors core.(*Fuzzer).Run for one prepared session: n mutants
// split from seed, each mutated, optimized with bugs enabled, and checked
// function by function. It returns the mutants spent, whether a finding
// stopped the loop, and the wall time of each iteration.
func loop(fz *core.Fuzzer, passes []opt.Pass, bugs *opt.BugSet, tvo tv.Options,
	seed uint64, n int, stopAtFinding bool, c *census, l *layers) (int, bool, []time.Duration) {

	mu := mutate.New(fz.Orig(), mutate.Config{})
	master := rng.New(seed)
	var iterNS []time.Duration
	for iter := 1; iter <= n; iter++ {
		t0 := now()
		found := iteration(mu, passes, bugs, tvo, master.SplitSeed(), c, l)
		d := time.Since(t0)
		l.LoopNS += int64(d)
		iterNS = append(iterNS, d)
		c.Mutants++
		if found && stopAtFinding {
			return iter, true, iterNS
		}
	}
	return n, false, iterNS
}

// iteration mirrors core's mutate→optimize→verify cycle and reports
// whether it produced a finding (a crash or an Invalid verdict).
func iteration(mu *mutate.Mutator, passes []opt.Pass, bugs *opt.BugSet, tvo tv.Options,
	seed uint64, c *census, l *layers) bool {

	t0 := now()
	mutant := mu.Mutate(seed)
	l.MutateNS += int64(time.Since(t0))

	optimized := mutant.Clone()
	ctx := opt.NewContext(optimized)
	if bugs != nil {
		ctx.Bugs = bugs
	}
	t0 = now()
	crashed := runPasses(ctx, passes)
	l.OptNS += int64(time.Since(t0))
	if crashed {
		c.Crashes++
		l.OptCrashes++
		return true
	}

	found := false
	for _, fn := range optimized.Defs() {
		src := mutant.FuncByName(fn.Name)
		if src == nil {
			continue
		}
		c.Checks++
		if fn.String() == src.String() {
			c.Valid++
			c.Fastpath++
			continue
		}
		t0 = now()
		r := tv.Verify(mutant, src, fn, tvo)
		l.query(r, time.Since(t0))
		switch r.Verdict {
		case tv.Valid:
			c.Valid++
		case tv.Invalid:
			c.Invalid++
			found = true
		case tv.Unsupported:
			c.Unsupported++
		default:
			c.Unknown++
		}
	}
	return found
}

// runPasses runs the pipeline, reporting an optimizer panic as a crash
// the way core does.
func runPasses(ctx *opt.Context, passes []opt.Pass) (crashed bool) {
	defer func() {
		if recover() != nil {
			crashed = true
		}
	}()
	opt.RunPasses(ctx, passes)
	return false
}

// now is the replay's only clock read. The timings are its output and
// never feed back into what it replays.
func now() time.Time { return time.Now() } // vet:determinism — benchmark timer

// newFuzzer times core.New, the §III-A preprocessing gate.
func newFuzzer(mod *ir.Module, opts core.Options, l *layers) (*core.Fuzzer, error) {
	t0 := now()
	fz, err := core.New(mod, opts)
	l.CoreNewNS += int64(time.Since(t0))
	return fz, err
}

type campaignConfig struct {
	only     map[int]bool
	budget   int
	tvBudget int64
	passes   string
}

// campaignTV mirrors the TV options fuzz-campaign builds for one unit at
// its default flags: every cascade rung on, a 3-way portfolio, and a
// fresh verdict cache and src-encoding pool per unit.
func campaignTV(budget int64) tv.Options {
	return tv.Options{
		ConflictBudget: budget,
		Incremental:    true,
		Static:         true,
		Concrete:       true,
		Portfolio:      3,
		SrcEnc:         tv.NewSrcEncodings(),
		Cache:          tv.NewCache(),
	}
}

// replayCampaign mirrors `fuzz-campaign -workers 1` for one master seed:
// for each selected bug, its seed tests in campaign order, the per-bug
// budget split half per tagged seed and an eighth per untagged one, each
// unit stopping at its first finding.
func replayCampaign(cfg campaignConfig, seed uint64, l *layers) (census, error) {
	passes, err := opt.ByName(cfg.passes)
	if err != nil {
		return census{}, err
	}
	var c census
	suite := corpus.TargetedTests()
	for _, info := range opt.Registry {
		if !cfg.only[info.Issue] {
			continue
		}
		unitSeed := seed ^ uint64(info.Issue)
		spent := 0
		for _, t := range corpus.OrderedFor(suite, info.Issue) {
			if spent >= cfg.budget {
				break
			}
			n := cfg.budget / 2
			if !t.Near(info.Issue) {
				n = cfg.budget / 8
			}
			if spent+n > cfg.budget {
				n = cfg.budget - spent
			}
			t0 := now()
			mod, err := parser.Parse(t.Text)
			l.CoreNewNS += int64(time.Since(t0))
			if err != nil {
				continue // the campaign skips an unparsable seed test
			}
			bugs := (&opt.BugSet{}).Enable(info.ID)
			tvo := campaignTV(cfg.tvBudget)
			fz, err := newFuzzer(mod, core.Options{
				Passes: cfg.passes, Bugs: bugs, Seed: unitSeed,
				NumMutants: n, StopAtFirstFinding: true, TV: tvo,
			}, l)
			if err != nil {
				continue // nothing verifiable in this seed test
			}
			iters, found, _ := loop(fz, passes, bugs, tvo, unitSeed, n, true, &c, l)
			spent += iters
			if found {
				break
			}
		}
	}
	return c, nil
}

// fileRun is one alive-mutate input file's replay: the wall time of each
// iteration, kept for the discrete comparison.
type fileRun struct {
	path   string
	iterNS []time.Duration
}

// replayFiles mirrors `alive-mutate -n N -passes P -seed S files...`:
// plain monolithic TV at core's default budget, no seeded bug.
func replayFiles(paths []string, passSpec string, n int, seed uint64, l *layers) (census, []fileRun, error) {
	passes, err := opt.ByName(passSpec)
	if err != nil {
		return census{}, nil, err
	}
	var c census
	var runs []fileRun
	for _, path := range paths {
		t0 := now()
		mod, err := moduleio.Load(path)
		l.CoreNewNS += int64(time.Since(t0))
		if err != nil {
			return c, nil, err
		}
		fz, err := newFuzzer(mod, core.Options{Passes: passSpec, Seed: seed, NumMutants: n}, l)
		if err != nil {
			return c, nil, fmt.Errorf("%s: %w", path, err)
		}
		tvo := tv.Options{ConflictBudget: 30000} // core.New's default
		_, _, iterNS := loop(fz, passes, nil, tvo, seed, n, false, &c, l)
		runs = append(runs, fileRun{path: path, iterNS: iterNS})
	}
	return c, runs, nil
}

// discreteFile compares the two workflows on one file over the same
// mutant seeds: the integrated loop's iterations against the Fig. 2
// three-process pipeline's.
type discreteFile struct {
	File         string `json:"file"`
	Mutants      int    `json:"mutants"`
	IntegratedNS int64  `json:"integrated_ns"`
	DiscreteNS   int64  `json:"discrete_ns"`
}

// runDiscrete times the Fig. 2 pipeline on the first m mutant seeds of
// each replayed file.
func runDiscrete(binDir, tmp, passSpec string, seed uint64, m int, runs []fileRun) ([]discreteFile, error) {
	p := &discrete.Pipeline{
		Tools: discrete.Tools{
			MutateBin: filepath.Join(binDir, "mutate-tool"),
			OptBin:    filepath.Join(binDir, "opt"),
			TVBin:     filepath.Join(binDir, "alive-tv"),
		},
		Passes:   passSpec,
		TmpDir:   tmp,
		TVBudget: 30000,
	}
	var out []discreteFile
	for _, r := range runs {
		k := m
		if k > len(r.iterNS) {
			k = len(r.iterNS)
		}
		df := discreteFile{File: filepath.Base(r.path), Mutants: k}
		master := rng.New(seed)
		for i := 0; i < k; i++ {
			df.IntegratedNS += int64(r.iterNS[i])
			t0 := now()
			if _, err := p.Iteration(r.path, master.SplitSeed()); err != nil {
				return nil, err
			}
			df.DiscreteNS += int64(time.Since(t0))
		}
		out = append(out, df)
	}
	return out, nil
}

// entry is one replayed command invocation; WallNS includes its set-up.
type entry struct {
	Seed   uint64 `json:"seed"`
	Census census `json:"census"`
	WallNS int64  `json:"wall_ns"`
}

// output is the document the replay prints.
type output struct {
	Entries  []entry        `json:"entries"`
	Layers   *layers        `json:"layers"`
	Discrete []discreteFile `json:"discrete,omitempty"`
}

func parseList(spec string, parse func(string) error) error {
	for _, f := range strings.Split(spec, ",") {
		if f = strings.TrimSpace(f); f != "" {
			if err := parse(f); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

func run() error {
	mode := flag.String("mode", "", "campaign or files")
	only := flag.String("only", "", "campaign: comma-separated issue numbers")
	budget := flag.Int("budget", 0, "campaign: max mutants per bug")
	tvBudget := flag.Int64("tvbudget", 4000, "campaign: SAT conflict budget per query")
	passSpec := flag.String("passes", "O2", "optimization pipeline")
	n := flag.Int("n", 0, "files: mutants per input file")
	seedSpec := flag.String("seeds", "", "comma-separated master seeds, one command invocation each")
	discreteBin := flag.String("discrete-bin", "", "files: directory holding mutate-tool, opt and alive-tv (empty = no comparison)")
	discreteN := flag.Int("discrete-n", 20, "files: mutants per file in the discrete comparison")
	tmp := flag.String("tmp", os.TempDir(), "files: scratch directory for the discrete pipeline")
	flag.Parse()

	var seeds []uint64
	if err := parseList(*seedSpec, func(f string) error {
		s, err := strconv.ParseUint(f, 10, 64)
		seeds = append(seeds, s)
		return err
	}); err != nil || len(seeds) == 0 {
		return fmt.Errorf("bad -seeds %q: %v", *seedSpec, err)
	}

	out := output{Layers: newLayers()}
	switch *mode {
	case "campaign":
		cfg := campaignConfig{only: map[int]bool{}, budget: *budget, tvBudget: *tvBudget, passes: *passSpec}
		if err := parseList(*only, func(f string) error {
			issue, err := strconv.Atoi(f)
			cfg.only[issue] = true
			return err
		}); err != nil || len(cfg.only) == 0 || cfg.budget < 8 {
			return fmt.Errorf("campaign mode needs -only and -budget >= 8 (%v)", err)
		}
		for _, s := range seeds {
			t0 := now()
			c, err := replayCampaign(cfg, s, out.Layers)
			if err != nil {
				return err
			}
			out.Entries = append(out.Entries, entry{Seed: s, Census: c, WallNS: int64(time.Since(t0))})
		}
	case "files":
		if flag.NArg() == 0 || *n <= 0 {
			return fmt.Errorf("files mode needs -n > 0 and input files")
		}
		for i, s := range seeds {
			t0 := now()
			c, runs, err := replayFiles(flag.Args(), *passSpec, *n, s, out.Layers)
			if err != nil {
				return err
			}
			out.Entries = append(out.Entries, entry{Seed: s, Census: c, WallNS: int64(time.Since(t0))})
			if i == 0 && *discreteBin != "" {
				if out.Discrete, err = runDiscrete(*discreteBin, *tmp, *passSpec, s, *discreteN, runs); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(out)
}
