package campaign

import (
	"context"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/parser"
	"repro/internal/triage"
)

func runTriaged(t *testing.T, workers int, sink *triage.Sink) *BugReport {
	t.Helper()
	return mustRunBugs(t, context.Background(), BugConfig{
		Budget:   120,
		TVBudget: 4000,
		Seed:     7,
		Passes:   "O2",
		Workers:  workers,
		Only:     testIssues,
		Stderr:   io.Discard,
		Triage:   sink,
	})
}

// dirSnapshot maps every file under dir (relative path) to its contents.
func dirSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, err := readTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// readTree maps every file under dir (relative path) to its contents.
func readTree(dir string) (map[string]string, error) {
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel] = string(buf)
		return nil
	})
	return files, err
}

// TestCampaignTriageBundlesReplay: every flushed bundle re-executes — the
// shrunk and original mutants still fire with the recorded signature, the
// mutant regenerates byte-for-byte from seed.ll plus the logged PRNG seed,
// the reduction never grew the module, and shrinking the already-shrunk
// module end to end (against the real opt+TV check) is a no-op.
func TestCampaignTriageBundlesReplay(t *testing.T) {
	sink := triage.NewSink()
	rep := runTriaged(t, 4, sink)
	if rep.Found == 0 {
		t.Fatal("campaign found nothing to bundle")
	}
	dir := t.TempDir()
	entries, err := sink.Flush(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no bundles flushed")
	}

	for _, e := range entries {
		bdir := filepath.Join(dir, e.Dir)
		res, err := triage.Replay(bdir)
		if err != nil {
			t.Errorf("%s: replay: %v", e.Signature, err)
			continue
		}
		if !res.OK() {
			t.Errorf("%s: shrunk=%v mutant=%v regenerated=%v witness=%v, want all true",
				e.Signature, res.ShrunkFires, res.MutantFires, res.RegenMatches, res.WitnessHolds)
		}
		if res.ShrunkInstrs > res.MutantInstrs {
			t.Errorf("%s: shrunk (%d instrs) larger than mutant (%d instrs)",
				e.Signature, res.ShrunkInstrs, res.MutantInstrs)
		}

		man, err := triage.LoadManifest(bdir)
		if err != nil {
			t.Fatal(err)
		}
		shrunkText, err := os.ReadFile(filepath.Join(bdir, triage.ShrunkFile))
		if err != nil {
			t.Fatal(err)
		}
		shrunk, err := parser.Parse(string(shrunkText))
		if err != nil {
			t.Fatalf("%s: shrunk.ll: %v", e.Signature, err)
		}
		check := &triage.Check{
			Passes: man.Passes, Issue: man.Issue, TVBudget: man.TVBudget,
			Func: man.Func, Kind: man.Kind, Signature: man.Signature,
		}
		if again := triage.Shrink(shrunk, check.Keep); again.String() != shrunk.String() {
			t.Errorf("%s: shrinking the shrunk module changed it:\n--- bundled ---\n%s--- re-shrunk ---\n%s",
				e.Signature, shrunk, again)
		}
	}
}
