// telemetry-check validates telemetry artifacts against their documented
// schemas (docs/OBSERVABILITY.md) and compares stage-time breakdowns
// and counters across snapshots. CI runs it over the smoke targets'
// artifacts; the workers sweep (benchmark/fuzzing/run.sh sweep) uses
// -compare to print a per-worker-count stage table, and a performance
// change uses it to show that its counters did not move.
//
// Usage:
//
//	telemetry-check snapshot.json [more.json ...]
//	telemetry-check BENCH_throughput.json
//	telemetry-check -require-campaign snapshot.json
//	telemetry-check -compare w1.json w2.json w4.json
//	telemetry-check -trace-out trace.json journal.jsonl
//	telemetry-check -trace-out trace.json -spans spans.jsonl journal.jsonl
//	telemetry-check -status status.json
//	telemetry-check -prom [-against metrics.json] prometheus.txt
//	telemetry-check -hotspots [-top 10] spans.jsonl
//	telemetry-check hotspots.json
//
// Each JSON file's schema is dispatched on its "schema" field:
// alive-mutate-telemetry/v1 snapshots, alive-mutate-bench/v1 benchmark
// documents, alive-mutate-status/v1 captures of /api/status, and
// alive-mutate-hotspots/v1 reports all validate. The process exits
// non-zero on the first violation. -require-campaign additionally
// asserts a snapshot came from a real campaign run: a positive mutants
// counter and the three core pipeline stages present, and, on a
// fuzz-campaign snapshot (its layers_off label), the TV cascade's
// partition identities for the layers that were on. -trace-out
// converts a JSONL event journal into Chrome trace_event JSON loadable
// in Perfetto / chrome://tracing; with -spans the trace gains true
// nested mutant/stage/solver-query slices joined from a -spans-out file.
// -status forces status validation (schema plus internal consistency:
// unit states sum to the total, group tallies match the summary). -prom
// lints a /metrics/prometheus capture — sorted families, monotone
// cumulative le buckets, _sum/_count self-consistency — and, with
// -against, cross checks it against a /metrics.json snapshot of the same
// run. -hotspots validates alive-mutate-spans/v1 files and prints their
// hotspot table (see also cmd/campaign-profile).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/spans"
)

func main() {
	compare := flag.Bool("compare", false, "print stage times and differing counters across the given snapshots")
	requireCampaign := flag.Bool("require-campaign", false, "additionally require campaign-shaped content (mutants > 0, core stages present)")
	traceOut := flag.String("trace-out", "", "convert a JSONL event journal to Chrome trace_event JSON at this path")
	spansPath := flag.String("spans", "", "with -trace-out: nest mutant/stage/query spans from this alive-mutate-spans/v1 file inside the unit slices")
	hotspotsMode := flag.Bool("hotspots", false, "validate alive-mutate-spans/v1 files and print their hotspot tables")
	topN := flag.Int("top", 10, "with -hotspots: entries per ranking section")
	statusMode := flag.Bool("status", false, "validate /api/status JSON captures (schema + internal consistency)")
	promMode := flag.Bool("prom", false, "lint /metrics/prometheus exposition captures")
	against := flag.String("against", "", "with -prom: cross-check the exposition against this /metrics.json snapshot")
	tolerance := flag.Float64("tolerance", 0, "with -prom -against: relative tolerance for _sum agreement (0 = 1e-9)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: telemetry-check [-compare] [-require-campaign] file.json ...\n       telemetry-check -trace-out trace.json [-spans spans.jsonl] journal.jsonl\n       telemetry-check -status status.json\n       telemetry-check -prom [-against metrics.json] prometheus.txt\n       telemetry-check -hotspots [-top 10] spans.jsonl")
		os.Exit(2)
	}

	if *traceOut != "" {
		if flag.NArg() != 1 {
			fail("-trace-out takes exactly one journal file (got %d)", flag.NArg())
		}
		exportTrace(flag.Arg(0), *spansPath, *traceOut)
		return
	}
	if *hotspotsMode {
		for _, path := range flag.Args() {
			f, err := spans.ReadFile(path)
			if err != nil {
				fail("%s: %v", path, err)
			}
			nspans := 0
			for _, u := range f.Units {
				nspans += len(u.Spans)
			}
			det := ""
			if f.Deterministic {
				det = ", deterministic"
			}
			fmt.Printf("%s: OK (%s, %d units, %d spans%s)\n", path, spans.SchemaV1, len(f.Units), nspans, det)
			fmt.Print(spans.Compute(f.Units, f.Deterministic, *topN).Table())
		}
		return
	}
	if *statusMode {
		for _, path := range flag.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				fail("%v", err)
			}
			s, err := telemetry.ValidateStatus(data)
			if err != nil {
				fail("%s: %v", path, err)
			}
			fmt.Printf("%s: OK (%s, %d/%d units done, %d/%d groups found, %d mutants)\n",
				path, telemetry.StatusSchemaV1, s.UnitsDone, s.UnitsTotal, s.GroupsFound, s.GroupsTotal, s.Mutants)
		}
		return
	}
	if *promMode {
		var snap *telemetry.Snapshot
		if *against != "" {
			data, err := os.ReadFile(*against)
			if err != nil {
				fail("%v", err)
			}
			snap, err = telemetry.ValidateSnapshot(data)
			if err != nil {
				fail("%s: %v", *against, err)
			}
		}
		for _, path := range flag.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				fail("%v", err)
			}
			if err := telemetry.LintPrometheus(data, snap, *tolerance); err != nil {
				fail("%s: %v", path, err)
			}
			extra := ""
			if snap != nil {
				extra = fmt.Sprintf(", cross-checked against %s", filepath.Base(*against))
			}
			fmt.Printf("%s: OK (prometheus exposition%s)\n", path, extra)
		}
		return
	}

	var snaps []*telemetry.Snapshot
	var names []string
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fail("%v", err)
		}
		switch schema := sniffSchema(path, data); schema {
		case telemetry.BenchSchemaV1:
			b, err := telemetry.ValidateBench(data)
			if err != nil {
				fail("%s: %v", path, err)
			}
			if *compare {
				fail("%s: -compare wants snapshots, not %s documents", path, schema)
			}
			fmt.Printf("%s: OK (%s, %d files, avg speedup %.2fx)\n",
				path, schema, len(b.Files), b.AvgSpeedup)
		case telemetry.SchemaV1:
			snap, err := telemetry.ValidateSnapshot(data)
			if err != nil {
				fail("%s: %v", path, err)
			}
			if *requireCampaign {
				if err := checkCampaignShape(snap); err != nil {
					fail("%s: %v", path, err)
				}
			}
			snaps = append(snaps, snap)
			names = append(names, strings.TrimSuffix(filepath.Base(path), ".json"))
			if !*compare {
				fmt.Printf("%s: OK (%d counters, %d histograms, %d mutants)\n",
					path, len(snap.Counters), len(snap.Histograms), snap.Counters["mutants"])
			}
		case telemetry.StatusSchemaV1:
			s, err := telemetry.ValidateStatus(data)
			if err != nil {
				fail("%s: %v", path, err)
			}
			if *compare {
				fail("%s: -compare wants snapshots, not %s documents", path, schema)
			}
			fmt.Printf("%s: OK (%s, %d/%d units done, %d/%d groups found, %d mutants)\n",
				path, schema, s.UnitsDone, s.UnitsTotal, s.GroupsFound, s.GroupsTotal, s.Mutants)
		case spans.HotspotsSchemaV1:
			h, err := spans.ValidateHotspots(data)
			if err != nil {
				fail("%s: %v", path, err)
			}
			if *compare {
				fail("%s: -compare wants snapshots, not %s documents", path, schema)
			}
			fmt.Printf("%s: OK (%s, %d units, %d queries, %d cache hits / %d misses)\n",
				path, schema, h.Units, h.Queries, h.CacheHits, h.CacheMisses)
		default:
			fail("%s: unknown schema %q (want %q, %q, %q, or %q)", path, schema, telemetry.SchemaV1, telemetry.BenchSchemaV1, telemetry.StatusSchemaV1, spans.HotspotsSchemaV1)
		}
	}
	if *compare {
		fmt.Print(compareTable(names, snaps))
	}
}

// sniffSchema reads just the document's "schema" field so validation can
// dispatch without guessing from file names.
func sniffSchema(path string, data []byte) string {
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		fail("%s: not a JSON document: %v", path, err)
	}
	return head.Schema
}

// exportTrace converts a journal to Chrome trace_event JSON; with a
// spans file, unit slices gain nested mutant/stage/query children.
func exportTrace(journalPath, spansPath, outPath string) {
	var units []*spans.UnitSpans
	if spansPath != "" {
		f, err := spans.ReadFile(spansPath)
		if err != nil {
			fail("%s: %v", spansPath, err)
		}
		units = f.Units
	}
	in, err := os.Open(journalPath)
	if err != nil {
		fail("%v", err)
	}
	defer in.Close()
	out, err := os.Create(outPath)
	if err != nil {
		fail("%v", err)
	}
	n, err := telemetry.ExportTraceSpans(in, units, out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail("%s: %v", journalPath, err)
	}
	nested := ""
	if spansPath != "" {
		nested = " (nested spans from " + filepath.Base(spansPath) + ")"
	}
	fmt.Printf("%s: %d events -> %s%s (load in Perfetto or chrome://tracing)\n", journalPath, n, outPath, nested)
}

// checkCampaignShape asserts the snapshot records an actual campaign and,
// when it names the TV layers it ran with off (fuzz-campaign does), that
// the cascade's partition identities hold for the layers that were on.
func checkCampaignShape(s *telemetry.Snapshot) error {
	if s.Counters["mutants"] <= 0 {
		return fmt.Errorf("campaign snapshot has no mutants counter (got %d)", s.Counters["mutants"])
	}
	for _, stage := range []string{"stage.mutate", "stage.opt", "stage.tv"} {
		h, ok := s.Histograms[stage]
		if !ok || h.Count == 0 {
			return fmt.Errorf("campaign snapshot is missing %s timings", stage)
		}
	}
	if label, ok := s.Labels[telemetry.LayersOffLabel]; ok {
		if err := telemetry.CheckCascade(s.Counters, telemetry.ParseLayersOff(label)); err != nil {
			return fmt.Errorf("cascade identities (layers off: %q): %w", label, err)
		}
	}
	return nil
}

// compareTable renders per-stage total times side by side, one column per
// snapshot, plus a mutants/sec summary row — the sweep's comparison view.
// Below it come the counters whose values differ across the snapshots
// and a count of the identical rest: the deterministic half of a perf
// change's before/after.
func compareTable(names []string, snaps []*telemetry.Snapshot) string {
	stageSet := map[string]bool{}
	counterSet := map[string]bool{}
	for _, s := range snaps {
		for name, h := range s.Histograms {
			if strings.HasPrefix(name, "stage.") && h.Count > 0 {
				stageSet[name] = true
			}
		}
		for name := range s.Counters {
			counterSet[name] = true
		}
	}
	stages := make([]string, 0, len(stageSet))
	for name := range stageSet {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	var differ []string
	for name := range counterSet {
		for _, s := range snaps[1:] {
			if s.Counters[name] != snaps[0].Counters[name] {
				differ = append(differ, name)
				break
			}
		}
	}
	sort.Strings(differ)

	var b strings.Builder
	header := func(first string, width int) {
		fmt.Fprintf(&b, "%-*s", width, first)
		for _, n := range names {
			fmt.Fprintf(&b, " %14s", n)
		}
		b.WriteString("\n")
	}
	header("stage", 16)
	for _, stage := range stages {
		fmt.Fprintf(&b, "%-16s", strings.TrimPrefix(stage, "stage."))
		for _, s := range snaps {
			h := s.Histograms[stage]
			fmt.Fprintf(&b, " %14s", time.Duration(h.TotalNS).Round(time.Millisecond))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-16s", "mutants")
	for _, s := range snaps {
		fmt.Fprintf(&b, " %14d", s.Counters["mutants"])
	}
	b.WriteString("\n")

	if len(differ) > 0 {
		width := len("counter")
		for _, name := range differ {
			width = max(width, len(name))
		}
		b.WriteString("\n")
		header("counter", width)
		for _, name := range differ {
			fmt.Fprintf(&b, "%-*s", width, name)
			for _, s := range snaps {
				fmt.Fprintf(&b, " %14d", s.Counters[name])
			}
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "%d counters identical\n", len(counterSet)-len(differ))
	return b.String()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "telemetry-check: "+format+"\n", args...)
	os.Exit(1)
}
