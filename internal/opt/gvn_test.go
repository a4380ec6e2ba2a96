package opt

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

// TestGVNKeys: commutative operands share a key in either order while
// other operands keep theirs; poison flags split keys only when they
// count; constants key by value and width, poison by type.
func TestGVNKeys(t *testing.T) {
	m := parser.MustParse(`define i8 @t(i8 %a, i8 %b, i1 %c) {
  %add1 = add i8 %a, %b
  %add2 = add i8 %b, %a
  %sub1 = sub i8 %a, %b
  %sub2 = sub i8 %b, %a
  %nuw = add nuw i8 %a, %b
  %eq1 = icmp eq i8 %a, %b
  %eq2 = icmp eq i8 %b, %a
  %lt1 = icmp slt i8 %a, %b
  %lt2 = icmp slt i8 %b, %a
  %k1 = add i8 %a, 5
  %k2 = add i8 5, %a
  %k3 = add i8 %a, 6
  %p1 = add i8 %a, poison
  %s1 = select i1 %c, i8 %a, i8 %b
  %s2 = select i1 %c, i8 %b, i8 %a
  ret i8 %add1
}
`)
	f := m.FuncByName("t")
	byName := map[string]*ir.Instr{}
	for _, in := range f.Instrs() {
		byName[in.Nm] = in
	}
	keys := gvnKeyer{ids: make(map[ir.Value]uint64)}
	key := func(name string, withFlags bool) gvnKey {
		k, ok := keys.key(byName[name], withFlags)
		if !ok {
			t.Fatalf("%%%s has no key", name)
		}
		return k
	}
	for _, tc := range []struct {
		a, b      string
		withFlags bool
		same      bool
	}{
		{"add1", "add2", true, true},
		{"sub1", "sub2", true, false},
		{"add1", "sub1", true, false},
		{"add1", "nuw", true, false},
		{"add1", "nuw", false, true},
		{"add2", "nuw", false, true},
		{"eq1", "eq2", true, true},
		{"lt1", "lt2", true, false},
		{"k1", "k2", true, true},
		{"k1", "k3", true, false},
		{"k1", "p1", true, false},
		{"s1", "s2", true, false},
	} {
		if got := key(tc.a, tc.withFlags) == key(tc.b, tc.withFlags); got != tc.same {
			t.Errorf("%%%s and %%%s (withFlags %t): same key = %t, want %t", tc.a, tc.b, tc.withFlags, got, tc.same)
		}
	}
	if _, ok := keys.key(f.Instrs()[len(f.Instrs())-1], true); ok {
		t.Error("ret has a GVN key")
	}
}

// TestGVNLeaders: the pass replaces `add b, a` with the leader `add a, b`
// but keeps `sub b, a`, and merges a flagless add into a flagged one only
// under the seeded flag-merge defect.
func TestGVNLeaders(t *testing.T) {
	src := `define i8 @t(i8 %a, i8 %b) {
  %x = add nuw i8 %a, %b
  %y = add i8 %b, %a
  %z = add i8 %a, %b
  %s = sub i8 %a, %b
  %w = sub i8 %b, %a
  %r1 = xor i8 %x, %y
  %r2 = xor i8 %r1, %z
  %r3 = xor i8 %r2, %s
  %r4 = xor i8 %r3, %w
  ret i8 %r4
}
`
	_, out := optimize(t, src, "gvn", nil)
	got := out.FuncByName("t").String()
	for _, want := range []string{"%x = add nuw i8 %a, %b", "%y = add i8 %b, %a", "%s = sub", "%w = sub", "%r1 = xor i8 %x, %y", "%r2 = xor i8 %r1, %y"} {
		if !strings.Contains(got, want) {
			t.Errorf("gvn output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "%z =") {
		t.Errorf("gvn kept %%z, a duplicate of %%y:\n%s", got)
	}

	_, bug := optimize(t, src, "gvn", (&BugSet{}).Enable(Bug53218GVNFlagMerge))
	got = bug.FuncByName("t").String()
	if strings.Contains(got, "%y =") || strings.Contains(got, "%z =") || !strings.Contains(got, "%r1 = xor i8 %x, %x") {
		t.Errorf("under the flag-merge defect gvn should fold %%y and %%z into %%x:\n%s", got)
	}
}
