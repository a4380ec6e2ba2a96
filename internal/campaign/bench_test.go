package campaign

import (
	"context"
	"io"
	"testing"

	"repro/internal/telemetry"
)

// BenchmarkCampaignSlice runs the standard 995-mutant slice (bugs 53252
// and 55129, budget 660, TV budget 4000, seed 7) in process on one
// worker, with telemetry on as under fuzz-campaign's -stats. The solver
// is a small share of a slice mutant, so its allocs/op is a nearly
// deterministic measure of the loop around the solver: the mutator, the
// optimizer, the fast path and the query encoding.
func BenchmarkCampaignSlice(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunBugs(context.Background(), BugConfig{
			Budget:    660,
			TVBudget:  4000,
			Seed:      7,
			Passes:    "O2",
			Workers:   1,
			Only:      []int{53252, 55129},
			Stderr:    io.Discard,
			Telemetry: &telemetry.Sink{Metrics: telemetry.NewCollector(), Shard: -1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Found != 1 {
			b.Fatalf("slice found %d bugs, want 1", rep.Found)
		}
	}
}
