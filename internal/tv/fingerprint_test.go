package tv

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/parser"
)

// fpOf fingerprints a single function paired with itself under default
// options — the shape the collision and invariance properties quantify
// over.
func fpOf(mod *ir.Module, f *ir.Function) Key {
	return Fingerprint(mod, f, f, Options{})
}

// canonString renames a clone of f to positional names and prints it; two
// functions with equal canonical strings are structurally identical, so a
// fingerprint collision between them is expected rather than a bug.
func canonString(f *ir.Function) string {
	c := f.Clone()
	c.Name = "fn"
	for i, p := range c.Params {
		p.Nm = fmt.Sprintf("p%d", i)
	}
	n := 0
	for bi, blk := range c.Blocks {
		blk.Nm = fmt.Sprintf("b%d", bi)
		for _, in := range blk.Instrs {
			if in.Nm != "" {
				in.Nm = fmt.Sprintf("v%d", n)
			}
			n++
		}
	}
	return c.String()
}

// richFn builds one function text exercising flags, predicates, calls,
// memory, and branching, with every name drawn from the given table.
func richFn(names map[string]string) string {
	t := `declare void @clobber(ptr %p)
define i32 @f(i32 %A, i32 %B) {
E:
  %a = add nsw i32 %A, %B
  %c = icmp slt i32 %a, 7
  br i1 %c, label %L, label %R
L:
  %p = alloca i32, align 4
  store i32 %a, ptr %p, align 4
  call void @clobber(ptr %p)
  %l = load i32, ptr %p, align 4
  ret i32 %l
R:
  %s = shl nuw i32 %B, 2
  ret i32 %s
}`
	for from, to := range names {
		t = replaceToken(t, from, to)
	}
	return t
}

// replaceToken substitutes %from / label references for a renamed
// variant. Names in the fixture are chosen so plain substring replacement
// of the sigil-prefixed form is unambiguous.
func replaceToken(text, from, to string) string {
	out := ""
	for i := 0; i < len(text); {
		if i+1+len(from) <= len(text) && text[i] == '%' && text[i+1:i+1+len(from)] == from {
			// Reject partial-token matches (e.g. %a inside %ab).
			end := i + 1 + len(from)
			if end == len(text) || !isNameByte(text[end]) {
				out += "%" + to
				i = end
				continue
			}
		}
		// Block labels appear both as "label %X" (handled above) and as
		// leading "X:" definitions.
		if (i == 0 || text[i-1] == '\n') && i+len(from) < len(text) &&
			text[i:i+len(from)] == from && text[i+len(from)] == ':' {
			out += to + ":"
			i += len(from) + 1
			continue
		}
		out += string(text[i])
		i++
	}
	return out
}

func isNameByte(b byte) bool {
	return b == '_' || b == '.' || (b >= '0' && b <= '9') ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// TestFingerprintInvariantUnderRenaming: SSA value names, parameter
// names, and block labels must not affect the fingerprint.
func TestFingerprintInvariantUnderRenaming(t *testing.T) {
	base := richFn(nil)
	renamed := richFn(map[string]string{
		"A": "width", "B": "mask",
		"a": "sum", "c": "cond", "p": "slot", "l": "reload", "s": "shifted",
		"E": "entry", "L": "left", "R": "right",
	})
	if base == renamed {
		t.Fatal("fixture error: renaming produced identical text")
	}
	m1 := parser.MustParse(base)
	m2 := parser.MustParse(renamed)
	k1 := fpOf(m1, m1.FuncByName("f"))
	k2 := fpOf(m2, m2.FuncByName("f"))
	if k1 != k2 {
		t.Fatalf("fingerprint changed under alpha renaming:\n%s\nvs\n%s", base, renamed)
	}
}

// TestFingerprintInvariantUnderFunctionReordering: the position of the
// pair's functions (and of callee declarations) within the module must
// not matter.
func TestFingerprintInvariantUnderFunctionReordering(t *testing.T) {
	mod := parser.MustParse(richFn(nil) + `
define i32 @g(i32 %x) {
  %r = mul i32 %x, 3
  ret i32 %r
}`)
	shuffled := mod.Clone()
	for i, j := 0, len(shuffled.Funcs)-1; i < j; i, j = i+1, j-1 {
		shuffled.Funcs[i], shuffled.Funcs[j] = shuffled.Funcs[j], shuffled.Funcs[i]
	}
	for _, name := range []string{"f", "g"} {
		k1 := fpOf(mod, mod.FuncByName(name))
		k2 := fpOf(shuffled, shuffled.FuncByName(name))
		if k1 != k2 {
			t.Fatalf("fingerprint of @%s changed under function reordering", name)
		}
	}
}

// TestFingerprintSensitivity: any Verify-visible edit — a poison flag, a
// predicate, a constant, an attribute, an alignment, an operation, or a
// branch-target swap — must change the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	base := `declare void @clobber(ptr %p)
define i32 @f(i32 %x, i32 %y) {
entry:
  %a = add nsw i32 %x, %y
  %d = sdiv exact i32 %a, 4
  %c = icmp slt i32 %d, 7
  br i1 %c, label %l, label %r
l:
  %p = alloca i32, align 4
  store i32 %d, ptr %p, align 4
  call void @clobber(ptr %p)
  %v = load i32, ptr %p, align 4
  ret i32 %v
r:
  ret i32 0
}`
	variants := map[string][2]string{
		"drop nsw flag":      {"add nsw i32", "add i32"},
		"add nuw flag":       {"add nsw i32", "add nuw nsw i32"},
		"drop exact flag":    {"sdiv exact i32", "sdiv i32"},
		"icmp predicate":     {"icmp slt", "icmp sle"},
		"compare constant":   {"%d, 7", "%d, 8"},
		"return constant":    {"ret i32 0", "ret i32 1"},
		"operation":          {"add nsw i32", "sub nsw i32"},
		"load alignment":     {"load i32, ptr %p, align 4", "load i32, ptr %p, align 2"},
		"param attribute":    {"i32 %x, i32 %y", "i32 noundef %x, i32 %y"},
		"callee attribute":   {"declare void @clobber(ptr %p)", "declare void @clobber(ptr nocapture %p)"},
		"branch-target swap": {"label %l, label %r", "label %r, label %l"},
		"divisor constant":   {"%a, 4", "%a, 2"},
	}
	mb := parser.MustParse(base)
	kb := fpOf(mb, mb.FuncByName("f"))
	for name, sub := range variants {
		text := replaceAll(base, sub[0], sub[1])
		if text == base {
			t.Fatalf("%s: substitution did not apply", name)
		}
		mv := parser.MustParse(text)
		if fpOf(mv, mv.FuncByName("f")) == kb {
			t.Errorf("%s: fingerprint unchanged by a Verify-visible edit", name)
		}
	}
}

func replaceAll(s, from, to string) string {
	out := ""
	for {
		i := indexOf(s, from)
		if i < 0 {
			return out + s
		}
		out += s[:i] + to
		s = s[i+len(from):]
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestFingerprintOptionsSensitivity: every Options knob that can alter a
// Result must be part of the key, so spans never group effort spent
// under different settings.
func TestFingerprintOptionsSensitivity(t *testing.T) {
	mod := parser.MustParse(richFn(nil))
	f := mod.FuncByName("f")
	base := Fingerprint(mod, f, f, Options{})
	for name, o := range map[string]Options{
		"ConflictBudget":  {ConflictBudget: 1000},
		"DisableRewrites": {DisableRewrites: true},
		"Incremental":     {Incremental: true},
	} {
		if Fingerprint(mod, f, f, o) == base {
			t.Errorf("Options.%s not reflected in fingerprint", name)
		}
	}
}

// TestFingerprintDistinguishesSrcTgtOrder: (src, tgt) and (tgt, src) ask
// different refinement questions and must key differently.
func TestFingerprintDistinguishesSrcTgtOrder(t *testing.T) {
	mod := parser.MustParse(`define i8 @f(i8 %x) {
  %a = add i8 %x, 1
  ret i8 %a
}
define i8 @g(i8 %x) {
  %a = add i8 %x, 2
  ret i8 %a
}`)
	f, g := mod.FuncByName("f"), mod.FuncByName("g")
	if Fingerprint(mod, f, g, Options{}) == Fingerprint(mod, g, f, Options{}) {
		t.Fatal("fingerprint symmetric in (src, tgt)")
	}
}

// TestFingerprintNoCollisions hashes every function of the shipped
// examples corpus plus 1,000 random corpus modules and requires that any
// two functions with equal fingerprints are structurally identical
// (equal canonical alpha-renamed text).
func TestFingerprintNoCollisions(t *testing.T) {
	type entry struct {
		where string
		canon string
	}
	seen := map[Key]entry{}
	total := 0
	check := func(where string, mod *ir.Module) {
		for _, f := range mod.Defs() {
			k := fpOf(mod, f)
			canon := canonString(f)
			if prev, ok := seen[k]; ok {
				if prev.canon != canon {
					t.Fatalf("fingerprint collision: %s/@%s vs %s\n--- first ---\n%s\n--- second ---\n%s",
						where, f.Name, prev.where, prev.canon, canon)
				}
				continue
			}
			seen[k] = entry{where: where + "/@" + f.Name, canon: canon}
			total++
		}
	}

	dir := filepath.Join("..", "..", "examples", "ir")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("examples/ir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".ll" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		check("examples/"+e.Name(), parser.MustParse(string(src)))
	}

	for seed := uint64(0); seed < 1000; seed++ {
		check(fmt.Sprintf("corpus/seed%d", seed), corpus.Generate(seed, 4))
	}
	if total < 1000 {
		t.Fatalf("only %d distinct functions hashed, want >= 1000", total)
	}
	t.Logf("hashed %d distinct functions without collision", total)
}
