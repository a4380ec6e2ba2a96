package campaign

import (
	"context"
	"io"
	"testing"
)

// testIssues is a small cross-section of the registry: cheap-to-find
// miscompilations and crashes plus one bug the tiny budget cannot reach
// (53252, first), so the invariance assertions cover found, missed, and
// both evidence kinds without a minutes-long campaign.
var testIssues = []int{53252, 53218, 55201, 55287, 58423, 59757, 64687}

// mustRunBugs runs a campaign that must not fail with a checkpoint or
// restore error (none of these tests configure either).
func mustRunBugs(t *testing.T, ctx context.Context, cfg BugConfig) *BugReport {
	t.Helper()
	rep, err := RunBugs(ctx, cfg)
	if err != nil {
		t.Fatalf("RunBugs: %v", err)
	}
	return rep
}

func runSmall(t *testing.T, workers int) *BugReport {
	t.Helper()
	return mustRunBugs(t, context.Background(), BugConfig{
		Budget:   120,
		TVBudget: 4000,
		Seed:     7,
		Passes:   "O2",
		Workers:  workers,
		Only:     testIssues,
		Stderr:   io.Discard,
	})
}

// TestBugCampaignAnalysisInvariance: the dataflow-analysis-backed folds
// (on by default) must not hide any seeded bug — the found/missed census
// is identical with analysis on and off. Mutant counts to first finding
// may legitimately differ (the optimizer differs), so only the census is
// compared.
func TestBugCampaignAnalysisInvariance(t *testing.T) {
	withAnalysis := runSmall(t, 4)
	without := mustRunBugs(t, context.Background(), BugConfig{
		Budget:     120,
		TVBudget:   4000,
		Seed:       7,
		Passes:     "O2",
		Workers:    4,
		Only:       testIssues,
		Stderr:     io.Discard,
		NoAnalysis: true,
	})
	if len(withAnalysis.Rows) != len(without.Rows) {
		t.Fatalf("row counts differ: %d with analysis, %d without", len(withAnalysis.Rows), len(without.Rows))
	}
	for i := range withAnalysis.Rows {
		on, off := withAnalysis.Rows[i], without.Rows[i]
		if on.Info.Issue != off.Info.Issue || on.Found != off.Found || on.Kind != off.Kind {
			t.Errorf("issue %d census diverged:\n  analysis on:  found=%v kind=%q\n  analysis off: found=%v kind=%q",
				on.Info.Issue, on.Found, on.Kind, off.Found, off.Kind)
		}
	}
	if withAnalysis.Found == 0 {
		t.Error("invariance campaign found nothing; assertions vacuous")
	}
}

// TestBugCampaignCancelled: a cancelled campaign still returns a partial
// report with every requested bug present.
func TestBugCampaignCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := mustRunBugs(t, ctx, BugConfig{
		Budget: 120, TVBudget: 4000, Seed: 7, Workers: 4,
		Only: testIssues, Stderr: io.Discard,
	})
	if !rep.Interrupted {
		t.Error("cancelled campaign not marked interrupted")
	}
	if len(rep.Rows) != len(testIssues) {
		t.Errorf("partial report has %d rows, want %d", len(rep.Rows), len(testIssues))
	}
	if rep.Found != 0 {
		t.Errorf("campaign cancelled before start found %d bugs", rep.Found)
	}
}

// TestProgressCallback: every completed bug reports exactly one progress
// row, and rows carry the registry metadata — found or missed (53252
// needs ~5000 mutants, so this budget misses it).
func TestProgressCallback(t *testing.T) {
	issues := []int{53218, 53252, 55201, 55287}
	seen := map[int]int{}
	missed := 0
	mustRunBugs(t, context.Background(), BugConfig{
		Budget: 40, TVBudget: 2000, Seed: 7, Workers: 4,
		Only:   issues,
		Stderr: io.Discard,
		Progress: func(r BugRow) { // serialized by the engine
			seen[r.Info.Issue]++
			if !r.Found {
				missed++
			}
			if r.Info.PaperComp == "" {
				t.Errorf("progress row without a component: %q", r.ProgressLine())
			}
		},
	})
	for _, issue := range issues {
		if seen[issue] != 1 {
			t.Errorf("issue %d reported %d times, want 1", issue, seen[issue])
		}
	}
	if seen[0] != 0 {
		t.Errorf("%d progress row(s) report issue 0", seen[0])
	}
	if missed == 0 {
		t.Error("no bug was missed; the missed-row assertions are vacuous")
	}
}

// TestBugCampaignSmallBudgets: below a budget of 8 an untagged seed's
// eighth of the budget rounds to zero mutants, which the loop reads as
// no bound. Every unit must run at least one mutant and never more than
// what remains, so no bug spends, or reports, more than the budget.
func TestBugCampaignSmallBudgets(t *testing.T) {
	for budget := 1; budget <= 7; budget++ {
		rep := mustRunBugs(t, context.Background(), BugConfig{
			Budget:   budget,
			TVBudget: 4000,
			Seed:     7,
			Passes:   "O2",
			Workers:  2,
			Stderr:   io.Discard,
		})
		for _, r := range rep.Rows {
			if r.Iters > budget {
				t.Errorf("budget %d: bug %d reports %d mutants", budget, r.Info.Issue, r.Iters)
			}
			if spent := rep.Agg.Group(groupName(r.Info)).Iterations; spent > budget {
				t.Errorf("budget %d: bug %d spent %d mutants", budget, r.Info.Issue, spent)
			}
		}
	}
}
