// fuzz-campaign reproduces the paper's bug-finding experiment (§V-A,
// Table I): for every seeded defect in the optimizer's bug registry it
// runs an alive-mutate fuzzing campaign over the regression-test suite
// (internal/corpus: hand-written-style tests that sit NEAR each
// optimization's patterns, the way LLVM's unit tests sit near LLVM's bugs)
// with that defect enabled, and reports which bugs were found, after how
// many mutants, and by which kind of evidence (refinement failure vs
// crash) — the same census Table I presents for the 33 real LLVM bugs.
//
// The campaign is sharded over a worker pool (internal/campaign): one
// group per bug, one work unit per (bug × seed test), with the per-bug
// budget threaded through each group's chain. Results are reproducible
// for any -workers value; -workers 1 reproduces the historical serial
// driver byte-for-byte. SIGINT (and -deadline expiry) stop the campaign
// gracefully and still print the partial table.
//
// Usage:
//
//	fuzz-campaign [-budget 12000] [-seed 7] [-passes O2] [-workers N]
//	    [-deadline 10m] [-only 53252,50693] [-stats] [-out table1.txt]
//	    [-metrics-addr 127.0.0.1:8787] [-metrics-public] [-metrics-out metrics.json]
//	    [-journal events.jsonl] [-progress 10s] [-stall-threshold 2m]
//	    [-spans-out spans.jsonl] [-spans-deterministic]
//	    [-triage-dir triage/] [-checkpoint-dir ckpt/]
//	    [-checkpoint-interval 10s] [-resume]
//	    [-no-analysis] [-no-tv-cache]
//
// A/B comparisons (docs/PERFORMANCE.md): -no-analysis turns off the
// optimizer's dataflow-analysis-backed folds; each of the other -no-*
// flags turns off one layer of the TV cascade (campaign.Layers, which
// the flags are generated from). A cascade layer only skips work, so
// the table is byte-identical with any of them set.
//
// Checkpointing (docs/CHECKPOINTING.md): -checkpoint-dir makes the
// campaign durable — its progress is periodically serialized to
// <dir>/checkpoint.jsonl, and a campaign killed at ANY point (SIGKILL
// included) restarts with -resume and produces a final table and triage
// tree byte-identical to an uninterrupted run, at any -workers value.
// SIGINT additionally flushes a final checkpoint before the partial
// table prints, so a deliberate interrupt is always resumable. A resumed
// run appends to the same -journal file, starting with a
// campaign_resumed event.
//
// Observability (docs/OBSERVABILITY.md): -metrics-addr serves the live
// surface while the campaign runs — an embedded dashboard at /, the
// coordinator status API (/api/status, /api/units, /api/groups), the SSE
// journal tail (/api/events), Prometheus exposition
// (/metrics/prometheus), plus expvar and pprof. The listener binds
// loopback unless -metrics-public is set. -metrics-out writes the
// end-of-run snapshot; -journal streams structured JSONL events;
// -progress prints live throughput, ETA, and groups-found to stderr.
// Telemetry is write-only — the result table is byte-identical with it
// on or off.
//
// Triage (docs/OBSERVABILITY.md "Triage & Reproducers"): -triage-dir
// deduplicates findings by bug signature and writes one auto-shrunk
// reproducer bundle per signature (plus index.json) after the campaign
// ends. Like telemetry it never feeds back into the campaign, so the
// table stays byte-identical with triage on or off.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/moduleio"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/telemetry/spans"
	"repro/internal/triage"
)

func main() {
	// Deferred cleanup (journal flush, metrics server shutdown) must run
	// before the process exits, so the exit code is threaded out of run.
	os.Exit(run())
}

func run() int {
	budget := flag.Int("budget", 12000, "max mutants per bug across its seed tests")
	tvBudget := flag.Int64("tvbudget", 4000, "SAT conflict budget per refinement query")
	seed := flag.Uint64("seed", 7, "campaign master seed")
	passSpec := flag.String("passes", "O2", "optimization pipeline")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel campaign workers (1 = serial-identical)")
	deadline := flag.Duration("deadline", 0, "overall wall-clock budget (0 = none)")
	onlySpec := flag.String("only", "", "comma-separated issue numbers to restrict the campaign to")
	stats := flag.Bool("stats", false, "print the per-bug loop-statistics aggregate")
	outPath := flag.String("out", "", "also write the table to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve the live dashboard, status API, SSE events, Prometheus metrics, expvar and pprof on this address (host:port; localhost unless -metrics-public)")
	metricsPublic := flag.Bool("metrics-public", false, "allow -metrics-addr to bind a non-loopback interface (endpoint exposes pprof and internals)")
	metricsOut := flag.String("metrics-out", "", "write the end-of-run metrics snapshot (JSON) to this file")
	journalPath := flag.String("journal", "", "write the structured JSONL event journal to this file")
	progress := flag.Duration("progress", 0, "print live throughput to stderr at this interval (0 = off)")
	stall := flag.Duration("stall-threshold", 0, "journal a worker_stall event for units running longer than this (0 = off)")
	triageDir := flag.String("triage-dir", "", "write deduplicated, auto-shrunk reproducer bundles to this directory")
	ckptDir := flag.String("checkpoint-dir", "", "durably checkpoint campaign progress under this directory")
	ckptInterval := flag.Duration("checkpoint-interval", 10*time.Second, "minimum gap between periodic checkpoint writes (0 = every unit)")
	resume := flag.Bool("resume", false, "resume the campaign from -checkpoint-dir's checkpoint")
	spansOut := flag.String("spans-out", "", "record cost-attribution spans and write the alive-mutate-spans/v1 file here (see campaign-profile)")
	spansDet := flag.Bool("spans-deterministic", false, "zero wall-clock in recorded spans so the spans file is byte-identical at any -workers (structure and solver counters only)")
	noAnalysis := flag.Bool("no-analysis", false, "disable the dataflow-analysis-backed folds (A/B comparison runs)")
	layerOff := make([]*bool, len(campaign.Layers))
	for i, l := range campaign.Layers {
		layerOff[i] = flag.Bool(l.Flag, false, l.Usage)
	}
	flag.Parse()

	var only []int
	if *onlySpec != "" {
		for _, f := range strings.Split(*onlySpec, ",") {
			issue, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(os.Stderr, "fuzz-campaign: bad -only entry %q: %v\n", f, err)
				return 2
			}
			only = append(only, issue)
		}
		known := map[int]bool{}
		for _, info := range opt.Registry {
			known[info.Issue] = true
		}
		for _, issue := range only {
			if !known[issue] {
				fmt.Fprintf(os.Stderr, "fuzz-campaign: -only issue %d is not in the seeded-bug registry\n", issue)
				return 2
			}
		}
	}

	// Assemble the telemetry sink. A nil sink (no telemetry flags, no
	// -stats) turns every hook in the pipeline into a pointer test.
	var sink *telemetry.Sink
	wantMetrics := *metricsAddr != "" || *metricsOut != "" || *journalPath != "" || *progress > 0 || *stats || *spansOut != ""
	if wantMetrics {
		sink = &telemetry.Sink{Metrics: telemetry.NewCollector(), Shard: -1}
		sink.Metrics.SetLabel("command", "fuzz-campaign")
		sink.Metrics.SetLabel("workers", strconv.Itoa(*workers))
		sink.Metrics.SetLabel("seed", strconv.FormatUint(*seed, 10))
		sink.Metrics.SetLabel("budget", strconv.Itoa(*budget))
		sink.Metrics.SetLabel("passes", *passSpec)
	}
	if *journalPath != "" {
		// A resumed campaign appends to the killed run's journal so the
		// full event history — ending in campaign_resumed, then the
		// continuation — lives in one file.
		jflags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if *resume {
			jflags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		jf, err := os.OpenFile(*journalPath, jflags, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzz-campaign:", err)
			return 1
		}
		sink.Journal = telemetry.NewJournal(jf)
		defer sink.Journal.Close()
	}
	// The coordinator publishes its live read model whenever something
	// will read it: the HTTP status API or the -progress ticker (both
	// consume the same snapshot, so their rates and ETAs always agree).
	if *metricsAddr != "" || *progress > 0 {
		sink.Status = telemetry.NewStatusPublisher()
	}
	// Cost-attribution spans (docs/OBSERVABILITY.md "Cost attribution").
	// Deltas collect in memory during the run; the canonical file is
	// written after the table, so the campaign loop never blocks on it.
	var spanStore *spans.Store
	if *spansOut != "" {
		spanStore = spans.NewStore(*spansDet)
	}
	if *metricsAddr != "" {
		// The SSE stream tails the journal through a bounded ring. With no
		// -journal file the events still need a journal to be born in, so
		// one is opened over io.Discard — the ring is then its only reader.
		if sink.Journal == nil {
			sink.Journal = telemetry.NewJournal(io.Discard)
			defer sink.Journal.Close()
		}
		events := telemetry.NewEventBuffer(0)
		sink.Journal.Tee(events)
		srv, err := telemetry.Serve(*metricsAddr, telemetry.ServeOptions{
			Collector: sink.Metrics,
			Status:    sink.Status,
			Events:    events,
			Spans:     spanStore,
			Public:    *metricsPublic,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzz-campaign:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "fuzz-campaign: dashboard at http://%s/ (status /api/status, events /api/events, metrics /metrics/prometheus, pprof /debug/pprof/)\n", srv.Addr)
		defer srv.Close()
	}
	stopProgress := telemetry.StartProgress(os.Stderr, sink.Collector(), sink.StatusPublisher(), *progress)

	var triageSink *triage.Sink
	if *triageDir != "" {
		triageSink = triage.NewSink()
	}

	// SIGINT cancels the campaign; the partial table still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := campaign.BugConfig{
		Budget:             *budget,
		TVBudget:           *tvBudget,
		Seed:               *seed,
		Passes:             *passSpec,
		Workers:            *workers,
		Deadline:           *deadline,
		Only:               only,
		Progress:           func(r campaign.BugRow) { fmt.Println(r.ProgressLine()) },
		Telemetry:          sink,
		Spans:              spanStore,
		StallThreshold:     *stall,
		Triage:             triageSink,
		NoAnalysis:         *noAnalysis,
		CheckpointDir:      *ckptDir,
		CheckpointInterval: *ckptInterval,
		Resume:             *resume,
	}
	var off []string
	for i, l := range campaign.Layers {
		if *layerOff[i] {
			l.Off(&cfg)
			off = append(off, l.Name)
		}
	}
	// telemetry-check -require-campaign checks the cascade's identities
	// for the layers that were on.
	sink.Collector().SetLabel(telemetry.LayersOffLabel, strings.Join(off, ","))

	start := time.Now()
	rep, err := campaign.RunBugs(ctx, cfg)
	wall := time.Since(start)
	stopProgress()
	if rep == nil {
		// Resume refused (missing, corrupt, or mismatched checkpoint):
		// nothing ran, so there is no partial table to print.
		fmt.Fprintln(os.Stderr, "fuzz-campaign:", err)
		return 1
	}
	if err != nil {
		// The campaign ran but checkpointing failed mid-way; the table is
		// still valid — report the checkpoint loss and keep going.
		fmt.Fprintln(os.Stderr, "fuzz-campaign: warning:", err)
	}

	table := rep.Table()
	fmt.Println()
	fmt.Print(table)
	if *stats {
		total := rep.Agg.Total()
		fmt.Printf("\nPer-bug loop statistics (workers=%d, wall %.1fs):\n%s", *workers, wall.Seconds(), rep.Agg.String())
		fmt.Printf("Campaign total: %d mutants, %d refinement checks, %d crashes observed\n",
			total.Iterations, total.Checked, total.Crashes)
		if breakdown := sink.Collector().StageBreakdown(); breakdown != "" {
			fmt.Printf("\nStage-time breakdown (summed across shards):\n%s", breakdown)
		}
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(table), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fuzz-campaign:", err)
			return 1
		}
	}
	if triageSink != nil {
		entries, err := triageSink.Flush(*triageDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzz-campaign:", err)
			return 1
		}
		fmt.Printf("\nTriage: %d unique bug signature(s) bundled under %s\n", len(entries), *triageDir)
		for _, e := range entries {
			fmt.Printf("  %-36s -> %s (trace %s)\n", e.Signature, e.Dir, e.TraceID)
			sink.Emit(telemetry.Event{
				Type: "triage_bundle", Shard: -1, Group: e.Group,
				Unit: e.Unit, Detail: e.Signature, Trace: e.TraceID,
			})
			// Lint the bundle's shrunk reproducer and count findings per
			// rule (the lint.* counters of docs/OBSERVABILITY.md). Purely
			// additive: lint never feeds back into the campaign.
			mod, err := moduleio.Load(filepath.Join(*triageDir, e.Dir, triage.ShrunkFile))
			if err != nil {
				continue
			}
			for rule, n := range analysis.CountByRule(analysis.Lint(mod, analysis.LintConfig{})) {
				sink.Collector().Counter("lint." + string(rule)).Add(int64(n))
			}
		}
	}
	if spanStore != nil {
		if err := spanStore.WriteFile(*spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "fuzz-campaign:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "fuzz-campaign: wrote %d unit span delta(s) to %s (analyze with campaign-profile)\n",
			spanStore.Len(), *spansOut)
	}
	if *metricsOut != "" {
		snap := sink.Collector().Snapshot()
		b, err := snap.MarshalIndentedJSON()
		if err == nil {
			err = os.WriteFile(*metricsOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzz-campaign:", err)
			return 1
		}
	}
	if rep.Interrupted {
		return 130
	}
	return 0
}
