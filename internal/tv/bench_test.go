package tv

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

// exampleDefs loads every definition from the shipped examples corpus —
// the workload ISSUE's microbenchmarks standardize on.
func exampleDefs(b *testing.B) []struct {
	mod *ir.Module
	fn  *ir.Function
} {
	b.Helper()
	dir := filepath.Join("..", "..", "examples", "ir")
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatalf("examples/ir: %v", err)
	}
	var defs []struct {
		mod *ir.Module
		fn  *ir.Function
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".ll" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		mod := parser.MustParse(string(src))
		for _, f := range mod.Defs() {
			defs = append(defs, struct {
				mod *ir.Module
				fn  *ir.Function
			}{mod, f})
		}
	}
	if len(defs) == 0 {
		b.Fatal("no example definitions")
	}
	return defs
}

func benchVerify(b *testing.B, opts Options) {
	defs := exampleDefs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range defs {
			r := Verify(d.mod, d.fn, d.fn, opts)
			if r.Verdict != Valid {
				b.Fatalf("@%s: %v (%s)", d.fn.Name, r.Verdict, r.Reason)
			}
		}
	}
}

// BenchmarkVerifyExamples is the baseline monolithic path over the
// examples corpus (self-refinement of each definition).
func BenchmarkVerifyExamples(b *testing.B) {
	benchVerify(b, Options{})
}

// BenchmarkVerifyExamplesCached measures the steady-state cache-hit path:
// after the first iteration every query is encoded, digested and
// replayed from the solve stage's cache.
func BenchmarkVerifyExamplesCached(b *testing.B) {
	defs := exampleDefs(b)
	c := NewCache()
	opts := Options{Cache: c}
	for _, d := range defs {
		Verify(d.mod, d.fn, d.fn, opts) // warm
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range defs {
			Verify(d.mod, d.fn, d.fn, opts)
		}
	}
	b.StopTimer()
	if hits, _ := c.Stats(); hits == 0 {
		b.Fatal("no cache hits")
	}
}
