package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/telemetry"
	"repro/internal/telemetry/spans"
	"repro/internal/tv"
)

// loopRun is everything a run leaves behind that must not depend on the
// number of workers.
type loopRun struct {
	stats      Stats // Elapsed zeroed
	findings   []Finding
	log        string
	events     []telemetry.Event // TS zeroed
	counters   map[string]int64
	histCounts map[string]int64
}

// runLoop runs the loop over a fresh copy of mod at the given worker
// count, with a log, a journal and a metrics collector attached.
func runLoop(t *testing.T, mod *ir.Module, opts Options, workers int) loopRun {
	t.Helper()
	var logBuf, journalBuf bytes.Buffer
	journal := telemetry.NewJournal(&journalBuf)
	col := telemetry.NewCollector()
	opts.Log = &logBuf
	opts.Telemetry = &telemetry.Sink{Metrics: col, Journal: journal, Shard: -1}
	opts.Workers = workers
	fz, err := New(mod.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := fz.Run()
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	run := loopRun{stats: rep.Stats, findings: rep.Findings, log: logBuf.String(), histCounts: map[string]int64{}}
	run.stats.Elapsed = 0
	for _, line := range strings.Split(strings.TrimSpace(journalBuf.String()), "\n") {
		if line == "" {
			continue
		}
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		ev.TS = 0
		run.events = append(run.events, ev)
	}
	snap := col.Snapshot()
	run.counters = snap.Counters
	for name, h := range snap.Histograms {
		run.histCounts[name] = h.Count
	}
	return run
}

// TestLoopWorkersMatchSerial: running the iterations on workers changes
// nothing a run reports — stats, every finding field (lineage, witness
// and texts included), the log bytes, the journal's event sequence,
// every counter, and how many samples each histogram saw.
func TestLoopWorkersMatchSerial(t *testing.T) {
	cases := []struct {
		name string
		mod  *ir.Module
		opts Options
		// minFindings guards against a case that silently stops
		// exercising the finding paths.
		minFindings int
	}{
		{"corpus", corpus.Generate(11, 6), Options{
			Passes: "O2", Seed: 1, NumMutants: 40, VerifyMutants: true,
		}, 0},
		{"listing1-clamp", parser.MustParse(listing1), Options{
			Passes: "instcombine,dce", Bugs: (&opt.BugSet{}).Enable(opt.Bug53252ClampPredicate),
			Seed: 0xfeed, NumMutants: 1000, SaveFindings: true,
		}, 2},
		{"crash", parser.MustParse(crashSeed), Options{
			Passes: "instcombine", Bugs: (&opt.BugSet{}).Enable(opt.Bug52884NuwNswSmax),
			Seed: 7, NumMutants: 1000,
		}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			serial := runLoop(t, c.mod, c.opts, 1)
			if len(serial.findings) < c.minFindings {
				t.Fatalf("serial run has %d findings, want at least %d", len(serial.findings), c.minFindings)
			}
			if c.minFindings > 0 && (serial.log == "" || len(serial.events) == 0) {
				t.Fatal("serial run logged or journaled nothing")
			}
			for _, w := range []int{2, 8} {
				got := runLoop(t, c.mod, c.opts, w)
				if !reflect.DeepEqual(got.stats, serial.stats) {
					t.Errorf("workers %d: stats %+v, serial %+v", w, got.stats, serial.stats)
				}
				if !reflect.DeepEqual(got.findings, serial.findings) {
					t.Errorf("workers %d: findings differ from the serial run's", w)
				}
				if got.log != serial.log {
					t.Errorf("workers %d: log\n%s\nserial log\n%s", w, got.log, serial.log)
				}
				if !reflect.DeepEqual(got.events, serial.events) {
					t.Errorf("workers %d: journal %+v, serial %+v", w, got.events, serial.events)
				}
				if !reflect.DeepEqual(got.counters, serial.counters) {
					t.Errorf("workers %d: counters %v, serial %v", w, got.counters, serial.counters)
				}
				if !reflect.DeepEqual(got.histCounts, serial.histCounts) {
					t.Errorf("workers %d: histogram counts %v, serial %v", w, got.histCounts, serial.histCounts)
				}
			}
			waitGoroutines(t, base)
		})
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base: a worker that outlives Run is a leak. Goroutines that have
// signalled their exit may take a moment to be gone.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoopWorkersRepanicEarliest: a panic inside an iteration on a worker
// reaches the goroutine that called Run, and it is the panic of the
// earliest panicking iteration — the one the serial loop raises — even
// when a later iteration has panicked first on another worker.
func TestLoopWorkersRepanicEarliest(t *testing.T) {
	mod := parser.MustParse(listing1)
	// The hook panics on the queries in a sixteenth of the fingerprint
	// space (about a dozen of these 300 mutants' queries, the first a few
	// dozen iterations in), naming the query by its fingerprint.
	matches := func(fp string) bool { return strings.HasPrefix(fp, "1") }
	run := func(workers int, hook func(fp string)) (p any) {
		defer func() { p = recover() }()
		opts := Options{Passes: "O2", Seed: 1, NumMutants: 300, Workers: workers}
		opts.TV.NeedFingerprint = true
		opts.TV.Observe = func(r tv.Result, _ time.Duration) { hook(r.FP) }
		fz, err := New(mod.Clone(), opts)
		if err != nil {
			t.Fatal(err)
		}
		fz.Run()
		return nil
	}
	base := runtime.NumGoroutine()
	want := run(1, func(fp string) {
		if matches(fp) {
			panic("query " + fp)
		}
	})
	first, ok := want.(string)
	if !ok {
		t.Fatalf("the serial run's panic is %v; the hook's predicate matches no query", want)
	}
	first = strings.TrimPrefix(first, "query ")
	for _, w := range []int{2, 8} {
		later := make(chan struct{})
		var once sync.Once
		got := run(w, func(fp string) {
			if !matches(fp) {
				return
			}
			if fp == first {
				// Hold the earliest panic until a later iteration has
				// panicked on another worker.
				select {
				case <-later:
				case <-time.After(10 * time.Second):
				}
			} else {
				once.Do(func() { close(later) })
			}
			panic("query " + fp)
		})
		if got != want {
			t.Errorf("workers %d: panic %v, serial panic %v", w, got, want)
		}
		waitGoroutines(t, base)
	}
}

// TestLoopWorkersZeroTimeLimit: a time budget that is spent before the
// first iteration runs none, and starts no worker.
func TestLoopWorkersZeroTimeLimit(t *testing.T) {
	fz, err := New(corpus.Generate(11, 6), Options{Passes: "O2", Seed: 1, TimeLimit: time.Nanosecond, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	rep := fz.Run()
	if rep.Stats.Iterations != 0 || rep.Stats.Checked != 0 || len(rep.Findings) != 0 {
		t.Errorf("stats %+v, findings %d; want no iteration", rep.Stats, len(rep.Findings))
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the run, %d before", n, base)
	}
}

// lineCounter counts the lines written to it.
type lineCounter struct{ n atomic.Int64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.n.Add(int64(bytes.Count(p, []byte("\n"))))
	return len(p), nil
}

// TestLoopWorkersStop: Stop turning true after k commits ends the run with
// at least k iterations, and the report is exactly the serial report of
// that many iterations.
func TestLoopWorkersStop(t *testing.T) {
	// The usub.sat defect fires on most mutants of this seed, so nearly
	// every committed iteration writes one log line.
	mod := parser.MustParse(`define i8 @t(i8 %x, i8 %y) {
  %r = call i8 @llvm.usub.sat.i8(i8 %x, i8 %y)
  ret i8 %r
}`)
	opts := Options{
		Passes: "promote", Bugs: (&opt.BugSet{}).Enable(opt.Bug58109UsubSat),
		Seed: 3, NumMutants: 500, SaveFindings: true,
	}
	const k = 5
	base := runtime.NumGoroutine()
	var lines lineCounter
	o := opts
	o.Workers, o.Log = 4, &lines
	o.Stop = func() bool { return lines.n.Load() >= k }
	fz, err := New(mod.Clone(), o)
	if err != nil {
		t.Fatal(err)
	}
	rep := fz.Run()
	waitGoroutines(t, base)
	if rep.Stats.Iterations < k || rep.Stats.Iterations >= opts.NumMutants {
		t.Fatalf("Stop after %d logged findings ended the run at %d iterations", k, rep.Stats.Iterations)
	}
	if int(lines.n.Load()) != len(rep.Findings) {
		t.Errorf("%d log lines for %d findings", lines.n.Load(), len(rep.Findings))
	}
	o = opts
	o.NumMutants = rep.Stats.Iterations
	fz, err = New(mod.Clone(), o)
	if err != nil {
		t.Fatal(err)
	}
	want := fz.Run()
	rep.Stats.Elapsed, want.Stats.Elapsed = 0, 0
	if !reflect.DeepEqual(rep.Stats, want.Stats) || !reflect.DeepEqual(rep.Findings, want.Findings) {
		t.Errorf("stopped run %+v differs from the serial run of as many iterations %+v", rep.Stats, want.Stats)
	}
}

// TestWorkersGuard: New refuses workers together with the options whose
// state depends on iterations running one at a time, and accepts each of
// them on the serial loop.
func TestWorkersGuard(t *testing.T) {
	cases := map[string]func(*Options){
		"StopAtFirstFinding": func(o *Options) { o.StopAtFirstFinding = true },
		"spans": func(o *Options) {
			o.Telemetry = &telemetry.Sink{Spans: spans.NewStore(true).NewRecorder("g", "u", 0, 1)}
		},
		"cache": func(o *Options) { o.TV.Cache = tv.NewCache() },
	}
	mod := parser.MustParse(`define i32 @f(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}`)
	for name, set := range cases {
		for _, w := range []int{0, 1, 2} {
			o := Options{Passes: "O1", Seed: 1, NumMutants: 1, Workers: w}
			set(&o)
			_, err := New(mod.Clone(), o)
			if w > 1 && err == nil {
				t.Errorf("%s with %d workers: New accepted it", name, w)
			}
			if w <= 1 && err != nil {
				t.Errorf("%s with %d workers: %v", name, w, err)
			}
		}
	}
	if _, err := New(mod.Clone(), Options{Passes: "O1", Seed: 1, NumMutants: 1, Workers: 2}); err != nil {
		t.Errorf("plain options with 2 workers: %v", err)
	}
}
