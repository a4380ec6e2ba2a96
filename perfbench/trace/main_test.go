package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/moduleio"
	"repro/internal/tv"
)

// The campaign replay must reproduce fuzz-campaign's census exactly; if a
// default changes in the campaign, this test (and run.py's census check)
// fails rather than the replay silently measuring something else.
func TestReplayCampaignMirrorsCampaign(t *testing.T) {
	const seed, budget = 7, 16
	rep, err := campaign.RunBugs(context.Background(), campaign.BugConfig{
		Budget: budget, TVBudget: 4000, Seed: seed, Passes: "O2", Workers: 1,
		Only: []int{53252, 55129}, Portfolio: 3, Stderr: os.Stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Agg.Total()
	l := newLayers()
	cfg := campaignConfig{only: map[int]bool{53252: true, 55129: true}, budget: budget, tvBudget: 4000, passes: "O2"}
	got, err := replayCampaign(cfg, seed, l)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mutants != want.Iterations || got.Checks != want.Checked || got.Valid != want.Valid ||
		got.Invalid != want.Invalid || got.Unsupported != want.Unsupported ||
		got.Unknown != want.Unknown || got.Crashes != want.Crashes {
		t.Fatalf("replay census %+v, campaign %+v", got, want)
	}
	if len(l.QueryNS)+got.Fastpath != got.Checks {
		t.Fatalf("%d queries + %d fast-path checks != %d checks", len(l.QueryNS), got.Fastpath, got.Checks)
	}
	steps := 0
	for _, s := range l.Steps {
		steps += s.Queries
	}
	if steps != len(l.QueryNS) {
		t.Fatalf("deciding steps count %d queries, Verify ran %d", steps, len(l.QueryNS))
	}
}

// The files replay must reproduce alive-mutate's loop on the same file.
func TestReplayFilesMirrorsCore(t *testing.T) {
	mod := corpus.Generate(1, 9)
	path := filepath.Join(t.TempDir(), "t.ll")
	if err := os.WriteFile(path, []byte(mod.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := moduleio.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	const n, seed = 60, 3
	fz, err := core.New(loaded, core.Options{Passes: "O2", Seed: seed, NumMutants: n})
	if err != nil {
		t.Fatal(err)
	}
	want := fz.Run().Stats
	got, runs, err := replayFiles([]string{path}, "O2", n, seed, newLayers())
	if err != nil {
		t.Fatal(err)
	}
	if got.Mutants != want.Iterations || got.Checks != want.Checked || got.Valid != want.Valid ||
		got.Invalid != want.Invalid || got.Unknown != want.Unknown || got.Crashes != want.Crashes {
		t.Fatalf("replay census %+v, core %+v", got, want)
	}
	if len(runs) != 1 || len(runs[0].iterNS) != n {
		t.Fatalf("want %d timed iterations, got %+v", n, runs)
	}
}

func TestDecidingStep(t *testing.T) {
	cases := []struct {
		r    tv.Result
		want string
	}{
		{tv.Result{CacheHit: true}, "cache"},
		{tv.Result{StaticOutcome: tv.StaticProved}, "static"},
		{tv.Result{StaticOutcome: tv.StaticBailout, SrcEncProved: true}, "srcenc"},
		{tv.Result{AssumptionQueries: 3}, "session"},
		{tv.Result{PortfolioRaced: true, PortfolioWinner: -1, Verdict: tv.Unknown}, "portfolio"},
		{tv.Result{Verdict: tv.Invalid}, "monolithic"},
		{tv.Result{Verdict: tv.Unsupported}, "monolithic"},
	}
	for _, c := range cases {
		if got := decidingStep(c.r); got != c.want {
			t.Errorf("decidingStep(%+v) = %s, want %s", c.r, got, c.want)
		}
	}
}
