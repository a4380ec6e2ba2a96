// bench-throughput reproduces the paper's throughput experiment (§V-B):
// for each input file it performs the same amount of mutation testing
// twice — once with the integrated alive-mutate loop (everything in one
// process) and once with the discrete-tool baseline of Fig. 2 (separate
// mutate/opt/alive-tv executables communicating through files) — with
// identical PRNG seeds on both sides, and reports per-file and average
// speedups in the artifact's res.txt format (paper Listing 20).
//
// The per-file measurements are scheduled through the campaign engine
// (internal/campaign), one work unit per input file. The default is
// -workers 1 — timing fairness wants an otherwise idle machine — but CI
// smoke runs and multi-core sanity checks can shard the files with
// -workers N; each unit gets a private temp directory so the discrete
// pipelines never collide.
//
// Usage:
//
//	bench-throughput [-count 1000] [-seed 1] [-passes O2] \
//	    [-gen 20] [-workers 1] [-out res.txt] [-json BENCH_throughput.json] \
//	    [-metrics-addr 127.0.0.1:8787] [-metrics-out metrics.json] \
//	    [-spans-out spans.jsonl] [-spans-deterministic] [tests/...ll]
//
// With -gen N and no input files, N corpus files are synthesized first.
//
// Besides the human-readable res.txt, the run emits BENCH_throughput.json
// — a machine-readable result (schema alive-mutate-bench/v1: workers,
// mutants per file, per-file wall times, per-stage nanoseconds for the
// integrated loop) — so successive commits accumulate a perf trajectory
// that scripts can diff. -metrics-addr/-metrics-out expose the underlying
// telemetry exactly as in fuzz-campaign (docs/OBSERVABILITY.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/discrete"
	"repro/internal/parser"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/telemetry/spans"
	"repro/internal/tv"
)

type row struct {
	file         string
	integrated   float64 // seconds
	discrete     float64
	perf         float64
	notVerif     bool
	invalid      bool
	integratedNS int64
	discreteNS   int64
}

func main() {
	count := flag.Int("count", 1000, "mutants per input file (the paper's COUNT)")
	seed := flag.Uint64("seed", 1, "master PRNG seed (shared by both workflows)")
	passSpec := flag.String("passes", "O2", "optimization pipeline")
	gen := flag.Int("gen", 20, "generate this many corpus files when none are given")
	workers := flag.Int("workers", 1, "parallel file shards (keep 1 for publishable timings)")
	outPath := flag.String("out", "res.txt", "result file (Listing 20 format)")
	jsonPath := flag.String("json", "BENCH_throughput.json", "machine-readable result file (empty = skip)")
	metricsAddr := flag.String("metrics-addr", "", "serve the live dashboard, status API, SSE events, Prometheus metrics, expvar and pprof on this address (host:port; localhost unless -metrics-public)")
	metricsPublic := flag.Bool("metrics-public", false, "allow -metrics-addr to bind a non-loopback interface (endpoint exposes pprof and internals)")
	metricsOut := flag.String("metrics-out", "", "write the end-of-run metrics snapshot (JSON) to this file")
	repoRoot := flag.String("repo", ".", "repository root (for building the discrete tools)")
	spansOut := flag.String("spans-out", "", "record per-file span deltas (mutant/stage/solver-query tree) and write the alive-mutate-spans/v1 file here")
	spansDet := flag.Bool("spans-deterministic", false, "zero wall-clock in recorded spans so the spans file is byte-identical at any -workers")
	noAnalysis := flag.Bool("no-analysis", false, "disable the dataflow-analysis-backed folds (A/B overhead runs)")
	flag.Parse()

	// The integrated loop always records stage telemetry here: the
	// per-stage breakdown is part of the benchmark's output. (Overhead is
	// a few atomic adds per mutant — see EXPERIMENTS.md — and it applies
	// equally to both sides of the comparison's integrated column across
	// commits, so the trajectory stays comparable.)
	sink := &telemetry.Sink{Metrics: telemetry.NewCollector(), Shard: -1}
	sink.Metrics.SetLabel("command", "bench-throughput")
	sink.Metrics.SetLabel("workers", fmt.Sprint(*workers))
	sink.Metrics.SetLabel("seed", fmt.Sprint(*seed))
	if *metricsAddr != "" {
		// Full live surface: the benchmark has no journal file, so the SSE
		// ring is fed by a discard-backed journal (the ring is its only
		// reader), and the coordinator publishes per-file status.
		sink.Status = telemetry.NewStatusPublisher()
		sink.Journal = telemetry.NewJournal(io.Discard)
		defer sink.Journal.Close()
		events := telemetry.NewEventBuffer(0)
		sink.Journal.Tee(events)
		srv, err := telemetry.Serve(*metricsAddr, telemetry.ServeOptions{
			Collector: sink.Metrics,
			Status:    sink.Status,
			Events:    events,
			Public:    *metricsPublic,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bench-throughput: dashboard at http://%s/ (status /api/status, metrics /metrics/prometheus, pprof /debug/pprof/)\n", srv.Addr)
		defer srv.Close()
	}

	workDir, err := os.MkdirTemp("", "throughput")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(workDir)

	// Gather input files.
	files := flag.Args()
	if len(files) == 0 {
		dir := filepath.Join(workDir, "tests")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		mod := corpus.Generate(*seed, *gen)
		var decls string
		for _, f := range mod.Funcs {
			if f.IsDecl {
				decls += f.String()
			}
		}
		for i, f := range mod.Defs() {
			p := filepath.Join(dir, fmt.Sprintf("test%d.ll", i))
			if err := os.WriteFile(p, []byte(decls+"\n"+f.String()), 0o644); err != nil {
				fatal(err)
			}
			files = append(files, p)
		}
	}

	tools, err := discrete.BuildTools(*repoRoot, workDir)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var spanStore *spans.Store
	if *spansOut != "" {
		spanStore = spans.NewStore(*spansDet)
	}

	// One unit per file; every unit is its own group, so the engine is
	// free to shard them across the pool in input order.
	units := make([]campaign.Unit, len(files))
	for i, path := range files {
		i, path := i, path
		tmp := filepath.Join(workDir, fmt.Sprintf("u%d", i))
		units[i] = campaign.Unit{
			Group: filepath.Base(path),
			Name:  filepath.Base(path),
			Seed:  *seed,
			Run: func(ctx context.Context, _ any) (any, bool, error) {
				if err := os.MkdirAll(tmp, 0o755); err != nil {
					return row{}, true, err
				}
				shard := sink.ShardSink(campaign.WorkerID(ctx))
				rec := spanStore.NewRecorder(filepath.Base(path), filepath.Base(path), i, *seed)
				shard.Spans = rec
				r, err := measureFile(ctx, path, tmp, tools, *passSpec, *seed, *count, *noAnalysis, shard)
				if rec != nil {
					// Only the integrated loop records spans; its budget is
					// the fixed mutant count, spent in full on success.
					spanStore.Add(rec.Finish(int64(*count), false))
				}
				sink.Metrics.Merge(shard.Collector())
				return r, true, err
			},
		}
	}
	expStart := time.Now()
	// The error return only reports checkpoint/restore failures; this
	// benchmark configures neither.
	outcomes, _ := campaign.Run(ctx, units, campaign.Options{
		Workers:   *workers,
		Telemetry: sink,
		// Each file-group spends exactly -count mutants in its single
		// unit, so live status reports all-or-nothing per group.
		GroupProgress: func(group string, prev any) telemetry.GroupProgress {
			gp := telemetry.GroupProgress{Total: int64(*count)}
			if prev != nil {
				gp.Spent = int64(*count)
			}
			return gp
		},
		OnGroupDone: func(group string, outs []campaign.Outcome) {
			for _, o := range outs {
				if o.Skipped || o.Err != nil {
					continue
				}
				r := o.Res.(row)
				if !r.invalid {
					fmt.Printf("%s: alive-mutate %.3fs, discrete %.3fs, speedup %.1fx\n",
						r.file, r.integrated, r.discrete, r.perf)
				}
			}
		},
	})

	var rows []row
	var notVerified, invalid []string
	for i, o := range outcomes {
		if o.Err != nil {
			fatal(o.Err)
		}
		if o.Skipped {
			continue // interrupted before this file ran
		}
		r := o.Res.(row)
		if r.invalid {
			invalid = append(invalid, files[i])
			continue
		}
		if r.notVerif {
			notVerified = append(notVerified, r.file)
		}
		rows = append(rows, r)
	}

	// Listing 20 format.
	var b strings.Builder
	fmt.Fprintf(&b, "Total: %d\n", len(rows))
	b.WriteString("Alive-mutate lst:[")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%v, '%s')", r.integrated, r.file)
	}
	b.WriteString("]\n")
	b.WriteString("Discrete tools lst:[")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%v, '%s')", r.discrete, r.file)
	}
	b.WriteString("]\n")
	b.WriteString("perf lst:[")
	sum := 0.0
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%v, '%s')", r.perf, r.file)
		sum += r.perf
	}
	b.WriteString("]\n")
	if len(rows) > 0 {
		fmt.Fprintf(&b, "Avg perf:%v\n", sum/float64(len(rows)))
		perfs := make([]float64, len(rows))
		for i, r := range rows {
			perfs[i] = r.perf
		}
		sort.Float64s(perfs)
		fmt.Fprintf(&b, "Best perf:%v\nWorst perf:%v\n", perfs[len(perfs)-1], perfs[0])
	}
	fmt.Fprintf(&b, "Total not-verified:%d\n", len(notVerified))
	fmt.Fprintf(&b, "Not-verified files:%v\n", notVerified)
	fmt.Fprintf(&b, "Total invalid file:%d\n", len(invalid))
	fmt.Fprintf(&b, "Invalid files:%v\n", invalid)

	if err := os.WriteFile(*outPath, []byte(b.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Print(b.String())

	if *jsonPath != "" {
		// The document uses internal/telemetry's Bench types, so what this
		// writes is exactly what ValidateBench (telemetry-check) accepts.
		doc := telemetry.Bench{
			Schema:         telemetry.BenchSchemaV1,
			Workers:        *workers,
			MutantsPerFile: *count,
			Passes:         *passSpec,
			Seed:           *seed,
			WallNS:         int64(time.Since(expStart)),
			AvgSpeedup:     avgPerf(rows),
			StagesNS:       sink.Metrics.StageTotals(),
		}
		for _, r := range rows {
			doc.Files = append(doc.Files, telemetry.BenchFile{
				File: r.file, IntegratedNS: r.integratedNS,
				DiscreteNS: r.discreteNS, Speedup: r.perf,
			})
		}
		data, err := doc.MarshalIndentedJSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("machine-readable results written to %s\n", *jsonPath)
	}
	if spanStore != nil {
		if err := spanStore.WriteFile(*spansOut); err != nil {
			fatal(err)
		}
		fmt.Printf("span deltas for %d file(s) written to %s (analyze with campaign-profile)\n", spanStore.Len(), *spansOut)
	}
	if *metricsOut != "" {
		data, err := sink.Metrics.Snapshot().MarshalIndentedJSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*metricsOut, data, 0o644); err != nil {
			fatal(err)
		}
	}
}

// avgPerf is the mean speedup over the measured files.
func avgPerf(rows []row) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.perf
	}
	return sum / float64(len(rows))
}

// benchTVBudget is the conflict budget both workflows verify under. It is
// deliberately generous — the benchmark measures steady-state throughput,
// not budget-exhaustion behavior.
const benchTVBudget = 30000

// measureFile times both workflows over one input file. tel is the
// shard-local telemetry sink the integrated loop's stage breakdown
// records into. Both sides verify under the same plain TV settings —
// the integrated loop with tv.Options{ConflictBudget: benchTVBudget},
// the discrete loop by passing that budget to alive-tv, which builds the
// same options — so the comparison measures the process model, not a
// difference in verification work.
func measureFile(ctx context.Context, path, tmpDir string, tools discrete.Tools,
	passes string, seed uint64, count int, noAnalysis bool, tel *telemetry.Sink) (row, error) {
	r := row{file: filepath.Base(path)}
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	parseStop := tel.Collector().StartStage("parse")
	mod, err := parser.Parse(string(data))
	parseStop()
	if err != nil {
		r.invalid = true
		return r, nil
	}

	// Integrated workflow. Workers stays unset: the discrete side runs
	// one process at a time, so the integrated side runs the serial loop,
	// and the §V-B ratio compares one core against one core.
	fz, err := core.New(mod.Clone(), core.Options{
		Passes: passes, Seed: seed, NumMutants: count,
		Telemetry: tel, DisableAnalysis: noAnalysis,
		TV: tv.Options{ConflictBudget: benchTVBudget},
	})
	if err != nil {
		r.invalid = true
		return r, nil
	}
	t0 := time.Now()
	rep := fz.Run()
	r.integratedNS = int64(time.Since(t0))
	r.integrated = time.Duration(r.integratedNS).Seconds()

	// Discrete workflow: same seeds, same count (the Python loop of
	// §V-B).
	pipe := &discrete.Pipeline{Tools: tools, Passes: passes, TmpDir: tmpDir, TVBudget: benchTVBudget}
	master := rng.New(seed)
	t0 = time.Now()
	var disRes discrete.Result
	for i := 0; i < count; i++ {
		if ctx.Err() != nil {
			return r, ctx.Err()
		}
		s := master.SplitSeed()
		ir, err := pipe.Iteration(path, s)
		if err != nil {
			return r, err
		}
		disRes.Valid += ir.Valid
		disRes.Invalid += ir.Invalid
		disRes.Unsupported += ir.Unsupported
		disRes.Unknown += ir.Unknown
		disRes.Crashes += ir.Crashes
	}
	r.discreteNS = int64(time.Since(t0))
	r.discrete = time.Duration(r.discreteNS).Seconds()
	r.perf = r.discrete / r.integrated
	r.notVerif = rep.Stats.Invalid > 0 || disRes.Invalid > 0
	return r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-throughput:", err)
	os.Exit(1)
}
