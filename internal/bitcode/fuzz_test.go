package bitcode

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/parser"
)

// FuzzDecode: malformed bitcode returns an error, never panics, and
// whatever decodes re-encodes to bytes that decode to the same module.
// The corpus is seeded with the encoded examples/ir modules.
func FuzzDecode(f *testing.F) {
	paths, err := filepath.Glob("../../examples/ir/*.ll")
	if err != nil || len(paths) == 0 {
		f.Fatalf("examples/ir: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		m, err := parser.Parse(string(src))
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		f.Add(Encode(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		back, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("re-encoded module does not decode: %v", err)
		}
		if got, want := back.String(), m.String(); got != want {
			t.Fatalf("round trip mismatch\n--- decoded ---\n%s\n--- re-decoded ---\n%s", want, got)
		}
	})
}
