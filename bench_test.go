// Package repro's benchmark harness regenerates the paper's quantitative
// artifacts (see DESIGN.md §3 for the experiment index):
//
//   - §V-B / Fig. 2 — throughput: BenchmarkLoopIntegrated vs
//     BenchmarkLoopFileBased vs BenchmarkLoopDiscreteProcesses give the
//     per-iteration cost of the three workflows; their ratio is the
//     paper's headline speedup (12x average against real processes).
//   - Fig. 2 decomposition — BenchmarkOverhead* isolates each bold box
//     (parse, print, file I/O, process spawn).
//   - §V-A / Table I — BenchmarkCampaignFindClampBug measures the
//     time-to-first-finding of a seeded-bug campaign end to end (the full
//     census is cmd/fuzz-campaign).
//   - §II — BenchmarkMutationStructureAware vs
//     BenchmarkMutationStructureBlind (plus the validity rates measured in
//     internal/mutate's tests).
//   - Ablations — BenchmarkMutationColdAnalyses (two-level overlay cache
//     off: re-preprocess per mutant) and BenchmarkTVNoRewrite (SMT
//     rewriter off).
package repro

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/discrete"
	"repro/internal/mutate"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/rng"
	"repro/internal/tv"
)

// benchInput is a representative small seed file (the Listing-2 clamp
// shape, the paper's running evaluation material: InstCombine unit tests
// under 2 KB).
const benchInput = `define i32 @clamp(i32 %x, i32 %low, i32 %high) {
  %t0 = icmp slt i32 %x, 0
  %t1 = select i1 %t0, i32 %low, i32 %high
  %t2 = icmp ult i32 %x, 65536
  %n = xor i1 %t2, true
  %r = select i1 %n, i32 %x, i32 %t1
  ret i32 %r
}
`

// --- §V-B: the three workflows ---
//
// Caveat for the three BenchmarkLoop* results: per-mutant cost is heavy-
// tailed (a rare mutant can cost 100× the median in solver time), and the
// three benchmarks settle on different b.N, so they sample different
// prefixes of the mutant stream. Their ns/op are indicative; the
// controlled comparison with identical seed sets on both sides is
// cmd/bench-throughput (the §V-B experiment proper).

// BenchmarkLoopIntegrated measures the in-process mutate→optimize→verify
// iteration (paper Fig. 3).
func BenchmarkLoopIntegrated(b *testing.B) {
	mod := parser.MustParse(benchInput)
	fz, err := core.New(mod, core.Options{Passes: "O2", Seed: 1, NumMutants: b.N})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	fz.Run()
}

// BenchmarkLoopIntegratedWorkers is BenchmarkLoopIntegrated with the
// iterations on every core, committed in seed order as alive-mutate runs
// them.
func BenchmarkLoopIntegratedWorkers(b *testing.B) {
	mod := parser.MustParse(benchInput)
	fz, err := core.New(mod, core.Options{Passes: "O2", Seed: 1, NumMutants: b.N, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	fz.Run()
}

// BenchmarkLoopFileBased measures the same work with every stage boundary
// crossing the filesystem and the text format, but no process spawns.
func BenchmarkLoopFileBased(b *testing.B) {
	tmp := b.TempDir()
	loop := &discrete.FileLoop{Passes: "O2", TmpDir: tmp}
	master := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loop.Iteration(benchInput, master.SplitSeed()); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	toolsOnce sync.Once
	tools     discrete.Tools
	toolsErr  error
	toolsDir  string
)

func buildToolsOnce(b *testing.B) discrete.Tools {
	toolsOnce.Do(func() {
		toolsDir, toolsErr = os.MkdirTemp("", "tools")
		if toolsErr != nil {
			return
		}
		wd, _ := os.Getwd()
		tools, toolsErr = discrete.BuildTools(wd, toolsDir)
	})
	if toolsErr != nil {
		b.Skipf("cannot build discrete tools: %v", toolsErr)
	}
	return tools
}

// BenchmarkLoopDiscreteProcesses is the full Fig. 2 baseline: three
// fork/exec'd tools per iteration.
func BenchmarkLoopDiscreteProcesses(b *testing.B) {
	tl := buildToolsOnce(b)
	tmp := b.TempDir()
	input := filepath.Join(tmp, "input.ll")
	if err := os.WriteFile(input, []byte(benchInput), 0o644); err != nil {
		b.Fatal(err)
	}
	pipe := &discrete.Pipeline{Tools: tl, Passes: "O2", TmpDir: tmp}
	master := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Iteration(input, master.SplitSeed()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 2 overhead decomposition ---

// BenchmarkOverheadParse: cost of parsing the seed file.
func BenchmarkOverheadParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(benchInput); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadPrint: cost of printing a module back to text.
func BenchmarkOverheadPrint(b *testing.B) {
	mod := parser.MustParse(benchInput)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mod.String()
	}
}

// BenchmarkOverheadFileIO: write+read of a mutant-sized file.
func BenchmarkOverheadFileIO(b *testing.B) {
	tmp := b.TempDir()
	path := filepath.Join(tmp, "m.ll")
	data := []byte(benchInput)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			b.Fatal(err)
		}
		if _, err := os.ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadProcessSpawn: fork/exec of one tool doing no work
// (mutate-tool on a trivial file is the cheapest of the three).
func BenchmarkOverheadProcessSpawn(b *testing.B) {
	tl := buildToolsOnce(b)
	tmp := b.TempDir()
	input := filepath.Join(tmp, "input.ll")
	if err := os.WriteFile(input, []byte(benchInput), 0o644); err != nil {
		b.Fatal(err)
	}
	pipe := &discrete.Pipeline{Tools: tl, Passes: "O2", TmpDir: tmp}
	_ = pipe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One spawn, one tiny unit of work.
		r := rng.New(uint64(i))
		_ = r
		cmdSpawn(b, tl.MutateBin, "-seed", "1", "-o", filepath.Join(tmp, "out.ll"), input)
	}
}

func cmdSpawn(b *testing.B, bin string, args ...string) {
	b.Helper()
	if err := runCmd(bin, args...); err != nil {
		b.Fatal(err)
	}
}

// --- §V-A: campaign time-to-finding ---

// BenchmarkCampaignFindClampBug measures a complete mini-campaign: fuzz
// the Listing-2 seed against the seeded clamp defect until the first
// finding.
func BenchmarkCampaignFindClampBug(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mod := parser.MustParse(benchInput)
		bugs := (&opt.BugSet{}).Enable(opt.Bug53252ClampPredicate)
		fz, err := core.New(mod, core.Options{
			Passes:             "instcombine,dce",
			Bugs:               bugs,
			Seed:               uint64(i + 1),
			NumMutants:         50000,
			StopAtFirstFinding: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep := fz.Run()
		if len(rep.Findings) == 0 {
			b.Fatal("campaign failed to find the seeded bug")
		}
	}
}

// --- §II: mutation engines ---

// BenchmarkMutationStructureAware: one valid mutant via the real engine.
func BenchmarkMutationStructureAware(b *testing.B) {
	mod := parser.MustParse(benchInput)
	mu := mutate.New(mod, mutate.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Mutate(uint64(i))
	}
}

// BenchmarkMutationStructureBlind: one byte-level mutant plus the parse
// attempt a blind fuzzer's harness must pay to discover validity.
func BenchmarkMutationStructureBlind(b *testing.B) {
	bm := &mutate.ByteMutator{R: rng.New(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := bm.Mutate(benchInput)
		_, _ = parser.Parse(text)
	}
}

// --- ablations ---

// BenchmarkMutationColdAnalyses disables the two-level overlay cache by
// re-running preprocessing (dominator tree, shuffle ranges, constant scan)
// for every mutant — what §III-B's design avoids.
func BenchmarkMutationColdAnalyses(b *testing.B) {
	mod := parser.MustParse(benchInput)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu := mutate.New(mod, mutate.Config{}) // re-preprocesses every time
		mu.Mutate(uint64(i))
	}
}

// BenchmarkTVQuery: one refinement check of an instcombine-transformed
// function (the verifier's common case).
func BenchmarkTVQuery(b *testing.B) {
	benchTV(b, tv.Options{ConflictBudget: 500000})
}

// BenchmarkTVNoRewrite: the same query with the SMT builder's algebraic
// rewriter disabled — measuring how much solver work the rewriter saves.
func BenchmarkTVNoRewrite(b *testing.B) {
	benchTV(b, tv.Options{ConflictBudget: 500000, DisableRewrites: true})
}

func benchTV(b *testing.B, opts tv.Options) {
	src := parser.MustParse(benchInput)
	tgt := src.Clone()
	passes, _ := opt.ByName("instcombine,dce")
	opt.RunPasses(opt.NewContext(tgt), passes)
	sf := src.Defs()[0]
	tf := tgt.Defs()[0]
	if sf.String() == tf.String() {
		b.Fatal("optimizer did not transform the benchmark input")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tv.Verify(src, sf, tf, opts)
		if r.Verdict != tv.Valid {
			b.Fatalf("unexpected verdict %v", r.Verdict)
		}
	}
}
