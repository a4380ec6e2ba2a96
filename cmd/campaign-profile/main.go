// campaign-profile is the cost-attribution profiler: it answers "where
// does the verification budget go" by ranking seed functions, mutants,
// formula fingerprints, and whole units by TV solver cost, attributing
// cache misses and budget-exhausted Unknown verdicts to their sources —
// the evidence file the second-wave TV optimizations start from
// (docs/PERFORMANCE.md).
//
// Two modes:
//
//	campaign-profile spans.jsonl         analyze an existing -spans-out file
//	campaign-profile                     run a seeded campaign, then report
//
// Run mode defaults reproduce the CI smoke slice (budget 120, seed 7,
// the seven issues of internal/campaign's tests — the "995-mutant
// slice" of docs/PERFORMANCE.md), so a bare `campaign-profile` invocation prints a
// deterministic hotspot table in seconds; raise -budget / widen -only
// for a full-registry profile. The campaign verifies with fuzz-campaign's
// default TV cascade; to profile a cascade with a layer switched off,
// record a -spans-out file with fuzz-campaign and analyze it here.
//
// Usage:
//
//	campaign-profile [-top 10] [-json hotspots.json] [spans.jsonl]
//	campaign-profile [-budget 120] [-tvbudget 4000] [-seed 7] [-passes O2]
//	    [-workers N] [-only 53252,...] [-deadline 10m]
//	    [-deterministic] [-spans-out spans.jsonl] [-top 10] [-json out.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/telemetry/spans"
)

func main() {
	os.Exit(run())
}

func run() int {
	budget := flag.Int("budget", 120, "max mutants per bug across its seed tests (run mode)")
	tvBudget := flag.Int64("tvbudget", 4000, "SAT conflict budget per refinement query (run mode)")
	seed := flag.Uint64("seed", 7, "campaign master seed (run mode)")
	passSpec := flag.String("passes", "O2", "optimization pipeline (run mode)")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel campaign workers (run mode)")
	deadline := flag.Duration("deadline", 0, "overall wall-clock budget (0 = none; run mode)")
	onlySpec := flag.String("only", "53252,53218,55201,55287,58423,59757,64687",
		"comma-separated issue numbers to restrict the campaign to (run mode; empty = whole registry)")
	deterministic := flag.Bool("deterministic", false, "zero wall-clock in recorded spans: ranking falls back to sat.conflicts and the report is byte-identical at any -workers (run mode)")
	spansOut := flag.String("spans-out", "", "also write the recorded alive-mutate-spans/v1 file here (run mode)")
	topN := flag.Int("top", 10, "entries per hotspot ranking")
	jsonOut := flag.String("json", "", "also write the alive-mutate-hotspots/v1 report to this file")
	flag.Parse()

	var store *spans.Store
	switch flag.NArg() {
	case 0:
		var code int
		store, code = runCampaign(profileConfig{
			budget:        *budget,
			tvBudget:      *tvBudget,
			seed:          *seed,
			passes:        *passSpec,
			workers:       *workers,
			only:          *onlySpec,
			deadline:      *deadline,
			deterministic: *deterministic,
		})
		if store == nil {
			return code
		}
		if *spansOut != "" {
			if err := store.WriteFile(*spansOut); err != nil {
				fmt.Fprintln(os.Stderr, "campaign-profile:", err)
				return 1
			}
		}
	case 1:
		f, err := spans.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign-profile:", err)
			return 1
		}
		store = spans.NewStore(f.Deterministic)
		for _, u := range f.Units {
			store.Add(u)
		}
	default:
		fmt.Fprintln(os.Stderr, "campaign-profile: at most one spans file argument")
		return 2
	}

	h := spans.Compute(store.Units(), store.Deterministic(), *topN)
	fmt.Print(h.Table())
	if *jsonOut != "" {
		b, err := json.MarshalIndent(h, "", "  ")
		if err == nil {
			// Round-trip through the validator so a -json file is
			// schema-valid by construction.
			_, err = spans.ValidateHotspots(b)
		}
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign-profile:", err)
			return 1
		}
	}
	return 0
}

type profileConfig struct {
	budget        int
	tvBudget      int64
	seed          uint64
	passes        string
	workers       int
	only          string
	deadline      time.Duration
	deterministic bool
}

// runCampaign executes the profiling campaign with span recording on and
// returns the populated store (nil + exit code on failure).
func runCampaign(pc profileConfig) (*spans.Store, int) {
	var only []int
	if pc.only != "" {
		known := map[int]bool{}
		for _, info := range opt.Registry {
			known[info.Issue] = true
		}
		for _, f := range strings.Split(pc.only, ",") {
			issue, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(os.Stderr, "campaign-profile: bad -only entry %q: %v\n", f, err)
				return nil, 2
			}
			if !known[issue] {
				fmt.Fprintf(os.Stderr, "campaign-profile: -only issue %d is not in the seeded-bug registry\n", issue)
				return nil, 2
			}
			only = append(only, issue)
		}
	}

	store := spans.NewStore(pc.deterministic)
	sink := &telemetry.Sink{Metrics: telemetry.NewCollector(), Shard: -1}
	sink.Metrics.SetLabel("command", "campaign-profile")
	sink.Metrics.SetLabel("workers", strconv.Itoa(pc.workers))
	sink.Metrics.SetLabel("seed", strconv.FormatUint(pc.seed, 10))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := campaign.RunBugs(ctx, campaign.BugConfig{
		Budget:    pc.budget,
		TVBudget:  pc.tvBudget,
		Seed:      pc.seed,
		Passes:    pc.passes,
		Workers:   pc.workers,
		Deadline:  pc.deadline,
		Only:      only,
		Stderr:    os.Stderr,
		Telemetry: sink,
		Spans:     store,
		Portfolio: campaign.DefaultPortfolio,
	})
	if rep == nil {
		fmt.Fprintln(os.Stderr, "campaign-profile:", err)
		return nil, 1
	}
	fmt.Fprintf(os.Stderr, "campaign-profile: campaign done — %d/%d bugs found, %d unit span delta(s) recorded\n",
		rep.Found, len(rep.Rows), store.Len())
	return store, 0
}
