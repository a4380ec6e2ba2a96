// triage-replay re-executes reproducer bundles written by a
// `fuzz-campaign -triage-dir` run and asserts that each bug still fires:
// the shrunk module and the original mutant must both reproduce the
// bundle's signature through opt+TV, the mutant must be regenerable
// byte-for-byte from the seed test and the logged PRNG seed (the paper's
// §III-E repeatability workflow, checked end to end), and a
// miscompilation's recorded counterexample must still show its recorded
// divergence when re-executed.
//
// Usage:
//
//	triage-replay -dir triage/            # replay every bundle in index.json
//	triage-replay -bundle triage/<slug>   # replay one bundle
//
// Exit status 0 means every bundle replayed; 1 means at least one did
// not (or a bundle was malformed).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/moduleio"
	"repro/internal/triage"
)

func main() {
	os.Exit(run())
}

func run() int {
	dir := flag.String("dir", "", "triage directory to replay (every bundle in its index.json)")
	bundle := flag.String("bundle", "", "single bundle directory to replay")
	noLint := flag.Bool("no-lint", false, "skip the IR lint pass over each bundle's shrunk reproducer")
	flag.Parse()
	if (*dir == "") == (*bundle == "") {
		fmt.Fprintln(os.Stderr, "triage-replay: exactly one of -dir or -bundle is required")
		return 2
	}

	var bundles []string
	if *bundle != "" {
		bundles = []string{*bundle}
	} else {
		idx, err := triage.LoadIndex(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "triage-replay:", err)
			return 1
		}
		if len(idx.Bundles) == 0 {
			fmt.Fprintln(os.Stderr, "triage-replay: index lists no bundles")
			return 1
		}
		for _, e := range idx.Bundles {
			bundles = append(bundles, filepath.Join(*dir, e.Dir))
		}
	}

	failed := 0
	for _, bdir := range bundles {
		res, err := triage.Replay(bdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "triage-replay: %s: %v\n", bdir, err)
			failed++
			continue
		}
		status := "OK"
		if !res.OK() {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%-4s %s\n", status, res.Signature)
		fmt.Printf("     shrunk fires=%v (%d instrs)  mutant fires=%v (%d instrs)  regenerated-from-seed=%v  witness holds=%v\n",
			res.ShrunkFires, res.ShrunkInstrs, res.MutantFires, res.MutantInstrs, res.RegenMatches, res.WitnessHolds)
		if !*noLint {
			lintBundle(bdir)
		}
	}
	fmt.Printf("%d/%d bundle(s) replayed\n", len(bundles)-failed, len(bundles))
	if failed > 0 {
		return 1
	}
	return 0
}

// lintBundle runs the IR lint suite over the bundle's shrunk reproducer.
// Findings are informational — reduced reproducers routinely contain
// lint-worthy IR (that is often the bug) — so they never fail the replay.
func lintBundle(bdir string) {
	mod, err := moduleio.Load(filepath.Join(bdir, triage.ShrunkFile))
	if err != nil {
		fmt.Printf("     lint: skipped (%v)\n", err)
		return
	}
	diags := analysis.Lint(mod, analysis.LintConfig{})
	if len(diags) == 0 {
		fmt.Printf("     lint: clean\n")
		return
	}
	fmt.Printf("     lint: %d finding(s)\n", len(diags))
	for _, d := range diags {
		fmt.Printf("       %s\n", d)
	}
}
