// alive-mutate is the integrated fuzzer: mutation, optimization, and
// translation validation in a single process (paper Fig. 3). It mirrors
// the artifact's command line (paper appendix §G):
//
//	alive-mutate [flags] input.ll [more.ll ...]
//
//	-n N            generate N mutants per input file (like the artifact's -n)
//	-t SECONDS      or run for a time budget (like -t)
//	-seed S         master PRNG seed (default 1); every mutant's own seed is logged
//	-passes SPEC    optimization pipeline: O1, O2, or comma-separated passes
//	-save-all DIR   save every mutant as NAME0.ll, NAME1.ll, ... (like -saveAll)
//	-save-bugs DIR  save only failing mutants and their optimized forms
//	-replay SEED    regenerate the single mutant for SEED and print it
//	-bug ISSUE      enable a seeded defect by LLVM issue number (experiments)
//	-mutations LIST restrict mutation operators (comma-separated names)
//	-verify-mutants run the IR verifier on every mutant
//	-quiet          suppress the per-finding log
//
// Each file's mutate→optimize→verify iterations run on GOMAXPROCS
// goroutines (all cores by default) and are committed in seed order, so
// the log, the findings and the summary are the same at any GOMAXPROCS;
// GOMAXPROCS=1 runs the serial loop.
//
// Observability (docs/OBSERVABILITY.md):
//
//	-metrics-addr A serve live expvar + pprof on a localhost address
//	-metrics-out F  write the end-of-run telemetry snapshot (JSON)
//	-progress D     print live throughput to stderr every D (e.g. 5s)
//	-stages         print the per-stage time breakdown after each file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/moduleio"
	"repro/internal/mutate"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

func main() {
	n := flag.Int("n", 0, "number of mutants per input file")
	tSec := flag.Float64("t", 0, "time budget in seconds per input file")
	seed := flag.Uint64("seed", 1, "master PRNG seed")
	passSpec := flag.String("passes", "O2", "optimization pipeline")
	saveAll := flag.String("save-all", "", "directory to save every mutant")
	saveBugs := flag.String("save-bugs", "", "directory to save failing mutants")
	replay := flag.Uint64("replay", 0, "regenerate the mutant for this seed and print it")
	bugIssue := flag.Int("bug", 0, "enable a seeded defect by issue number")
	mutations := flag.String("mutations", "", "comma-separated mutation operators (default: all)")
	verifyMutants := flag.Bool("verify-mutants", false, "run the IR verifier on every mutant")
	quiet := flag.Bool("quiet", false, "suppress the per-finding log")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics, expvar and pprof on this address (host:port; localhost unless -metrics-public)")
	metricsPublic := flag.Bool("metrics-public", false, "allow -metrics-addr to bind a non-loopback interface (endpoint exposes pprof and internals)")
	metricsOut := flag.String("metrics-out", "", "write the end-of-run metrics snapshot (JSON) to this file")
	progress := flag.Duration("progress", 0, "print live throughput to stderr at this interval (0 = off)")
	stages := flag.Bool("stages", false, "print the per-stage time breakdown after each file")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: alive-mutate [flags] input.ll ...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *n == 0 && *tSec == 0 && *replay == 0 {
		*n = 1000
	}

	mutCfg, err := parseMutations(*mutations)
	if err != nil {
		fatal(err)
	}
	bugs, err := resolveBug(*bugIssue)
	if err != nil {
		fatal(err)
	}

	// One sink shared by every input file (the snapshot aggregates the
	// whole invocation); nil when no telemetry flag asked for it.
	var sink *telemetry.Sink
	if *metricsAddr != "" || *metricsOut != "" || *progress > 0 || *stages {
		sink = &telemetry.Sink{Metrics: telemetry.NewCollector(), Shard: -1}
		sink.Metrics.SetLabel("command", "alive-mutate")
		sink.Metrics.SetLabel("seed", fmt.Sprint(*seed))
		sink.Metrics.SetLabel("passes", *passSpec)
	}
	if *metricsAddr != "" {
		// No campaign coordinator here, so the status API and SSE stream
		// stay off; the dashboard, Prometheus, expvar, and pprof routes
		// serve from the shared collector.
		srv, err := telemetry.Serve(*metricsAddr, telemetry.ServeOptions{
			Collector: sink.Metrics,
			Public:    *metricsPublic,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "alive-mutate: metrics at http://%s/ (Prometheus /metrics/prometheus, pprof /debug/pprof/)\n", srv.Addr)
		defer srv.Close()
	}
	stopProgress := telemetry.StartProgress(os.Stderr, sink.Collector(), nil, *progress)
	defer stopProgress()

	anyFinding := false
	for _, path := range flag.Args() {
		mod, err := moduleio.Load(path)
		if err != nil {
			fatal(err)
		}

		var logw io.Writer
		if !*quiet {
			logw = os.Stdout
		}
		// Files run one after another, so each records straight into the
		// shared collector (live -progress reads it) — no shard merge
		// needed. Within a file the iterations run on every core.
		opts := core.Options{
			Passes:        *passSpec,
			Bugs:          bugs,
			Seed:          *seed,
			NumMutants:    *n,
			TimeLimit:     time.Duration(*tSec * float64(time.Second)),
			SaveFindings:  *saveBugs != "" || *saveAll != "",
			Mutations:     mutCfg,
			VerifyMutants: *verifyMutants,
			Log:           logw,
			Telemetry:     sink,
			Workers:       runtime.GOMAXPROCS(0),
		}
		fz, err := core.New(mod, opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if dropped := fz.Dropped(); len(dropped) > 0 && !*quiet {
			fmt.Printf("%s: dropped %d function(s) during preprocessing: %s\n",
				path, len(dropped), strings.Join(dropped, ", "))
		}

		if *replay != 0 {
			// §III-E repeatability workflow: regenerate a specific mutant.
			fmt.Print(fz.Replay(*replay).String())
			continue
		}

		if *saveAll != "" {
			if err := saveAllMutants(fz, path, *saveAll, *seed, *n); err != nil {
				fatal(err)
			}
		}

		rep := fz.Run()
		if len(rep.Findings) > 0 {
			anyFinding = true
		}
		if *saveBugs != "" {
			if err := saveFindings(rep, path, *saveBugs); err != nil {
				fatal(err)
			}
		}
		printSummary(path, rep)
		if *stages {
			if breakdown := sink.Collector().StageBreakdown(); breakdown != "" {
				fmt.Printf("stage-time breakdown (cumulative):\n%s", breakdown)
			}
		}
	}
	if *metricsOut != "" {
		data, err := sink.Collector().Snapshot().MarshalIndentedJSON()
		if err == nil {
			err = os.WriteFile(*metricsOut, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if anyFinding {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alive-mutate:", err)
	os.Exit(2)
}

func parseMutations(spec string) (mutate.Config, error) {
	var cfg mutate.Config
	if spec == "" {
		return cfg, nil
	}
	byName := map[string]mutate.Op{}
	for _, op := range mutate.AllOps {
		byName[op.String()] = op
	}
	for _, name := range strings.Split(spec, ",") {
		op, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return cfg, fmt.Errorf("unknown mutation operator %q", name)
		}
		cfg.Ops = append(cfg.Ops, op)
	}
	return cfg, nil
}

func resolveBug(issue int) (*opt.BugSet, error) {
	if issue == 0 {
		return nil, nil
	}
	bugs := &opt.BugSet{}
	for _, info := range opt.Registry {
		if info.Issue == issue {
			bugs.Enable(info.ID)
			return bugs, nil
		}
	}
	return nil, fmt.Errorf("unknown seeded bug issue %d", issue)
}

// saveAllMutants mirrors the artifact's -saveAll: mutants named
// test0.ll .. testN-1.ll (paper appendix §F).
func saveAllMutants(fz *core.Fuzzer, inputPath, dir string, seed uint64, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := strings.TrimSuffix(filepath.Base(inputPath), ".ll")
	master := rng.New(seed)
	for i := 0; i < n; i++ {
		s := master.SplitSeed()
		text := fz.Replay(s).String()
		name := filepath.Join(dir, fmt.Sprintf("%s%d.ll", base, i))
		if err := os.WriteFile(name, []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func saveFindings(rep *core.Report, inputPath, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := strings.TrimSuffix(filepath.Base(inputPath), ".ll")
	for i, fd := range rep.Findings {
		prefix := filepath.Join(dir, fmt.Sprintf("%s_bug%d_seed%x", base, i, fd.Seed))
		if fd.MutantText != "" {
			if err := os.WriteFile(prefix+"_mutant.ll", []byte(fd.MutantText), 0o644); err != nil {
				return err
			}
		}
		if fd.OptimizedText != "" {
			if err := os.WriteFile(prefix+"_optimized.ll", []byte(fd.OptimizedText), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

func printSummary(path string, rep *core.Report) {
	s := rep.Stats
	fmt.Printf("%s: %d mutants in %v | checks: %d valid, %d invalid, %d unsupported, %d unknown | crashes: %d | findings: %d\n",
		path, s.Iterations, s.Elapsed.Round(time.Millisecond),
		s.Valid, s.Invalid, s.Unsupported, s.Unknown, s.Crashes, len(rep.Findings))
	for _, fd := range rep.Findings {
		fmt.Printf("  [%s] iter=%d seed=%#x func=%s %s%s\n",
			fd.Kind, fd.Iter, fd.Seed, fd.Func, fd.CEX, fd.PanicMsg)
	}
}
