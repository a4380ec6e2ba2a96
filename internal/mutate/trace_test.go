package mutate_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/mutate"
	"repro/internal/parser"
	"repro/internal/rng"
)

// goldenTraceDigest is the pinned SHA-256 of the JSON lineage traces of
// the first 40 mutants of every corpus seed. It was recorded while every
// operator still rendered its site on every application, so it pins that
// rendering sites only when tracing changes no trace.
const goldenTraceDigest = "fe07cabee0294645b9dcf9c5565eeae8a6e3c0077b637a8f89ffe3a7baf070d3"

// TestTracesGolden: MutateTraced's traces match the pinned digest, and
// Mutate and MutateTraced give text-identical mutants for every seed.
func TestTracesGolden(t *testing.T) {
	var mods []*ir.Module
	for _, nt := range corpus.TargetedTests() {
		m, err := parser.Parse(nt.Text)
		if err != nil {
			t.Fatalf("seed %s: %v", nt.Name, err)
		}
		mods = append(mods, m)
	}
	mods = append(mods, corpus.Generate(1, 16))
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i, m := range mods {
		mu := mutate.New(m, mutate.Config{})
		master := rng.New(uint64(7 + i))
		for n := 0; n < 40; n++ {
			seed := master.SplitSeed()
			traced, tr := mu.MutateTraced(seed)
			if plain := mu.Mutate(seed); plain.String() != traced.String() {
				t.Fatalf("module %d seed %#x: Mutate and MutateTraced differ:\n%s\n---\n%s", i, seed, plain, traced)
			}
			if err := enc.Encode(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTraceDigest {
		t.Errorf("trace digest = %s, want %s", got, goldenTraceDigest)
	}
}
