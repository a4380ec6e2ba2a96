package parser

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse: malformed .ll text returns an error, never panics, and
// whatever parses prints to text that parses back to the same module.
// The corpus is seeded with the examples/ir modules and test9.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob("../../examples/ir/*.ll")
	if err != nil || len(paths) == 0 {
		f.Fatalf("examples/ir: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(test9)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return
		}
		text := m.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\n%s", err, text)
		}
		if got := back.String(); got != text {
			t.Fatalf("round trip mismatch\n--- printed ---\n%s\n--- reprinted ---\n%s", text, got)
		}
	})
}
