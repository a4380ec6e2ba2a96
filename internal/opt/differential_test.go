package opt

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/interp"
)

// TestO2ConcreteDifferential is the second, independent correctness gate
// on the default optimizer (the first is translation validation in
// TestO2PipelineRefines): generated corpus modules are optimized with the
// full -O2 pipeline and then source and target are executed on many
// concrete inputs with a shared environment oracle. Wherever the source
// is defined and non-poison, the target must produce the identical value.
// Execution and the refinement judgment ride the interp package's shared
// differential path (DiffRun/ClassifyRefinement) — the same code the TV
// oracle's witness replay uses — so this harness cannot drift from the
// refinement order it enforces.
func TestO2ConcreteDifferential(t *testing.T) {
	passes, err := ByName("O2")
	if err != nil {
		t.Fatal(err)
	}
	checkedSomething := false
	for seed := uint64(0); seed < 10; seed++ {
		orig := corpus.Generate(seed, 6)
		optimized := orig.Clone()
		RunPasses(NewContext(optimized), passes)
		if err := optimized.Verify(); err != nil {
			t.Fatalf("seed %d: optimizer output invalid: %v", seed, err)
		}

		for _, tgt := range optimized.Defs() {
			src := orig.FuncByName(tgt.Name)
			if src == nil || len(tgt.Params) != len(src.Params) {
				continue // mutation-free pipeline never changes signatures
			}
			for trial, args := range interp.InputVectors(src, 50, seed^0x2024) {
				sr, tr, errS, errT := interp.DiffRun(orig, optimized, src, tgt, args, seed*1000+uint64(trial))
				if errS != nil || errT != nil {
					continue // environment beyond the interpreter's model
				}
				if sr.UB || (sr.HasRet && sr.Ret.Poison) {
					continue // anything refines UB/poison
				}
				checkedSomething = true
				if div, detail := interp.ClassifyRefinement(sr, tr); div != interp.DivergeNone {
					t.Fatalf("seed %d @%s args %v: %s (%s)\n--- src ---\n%s--- tgt ---\n%s",
						seed, tgt.Name, args, div, detail, src.String(), tgt.String())
				}
			}
		}
	}
	if !checkedSomething {
		t.Fatal("differential test never reached a comparable execution")
	}
}
