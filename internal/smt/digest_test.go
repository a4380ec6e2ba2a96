package smt

import "testing"

// digestQuery builds a small query the way the encoder does: a division
// pair guarded by a non-zero divisor, an extract and a sign-extension,
// with the two variables named by the caller.
func digestQuery(b *Builder, xName, yName string) []*Term {
	x, y := b.Var(32, xName), b.Var(32, yName)
	q, r := b.UDiv(x, y), b.URem(x, y)
	recomposed := b.Add(b.Mul(q, y), r)
	low := b.SExt(b.Extract(r, 7, 0), 32)
	query := b.And(b.Ne(y, b.Const(32, 0)),
		b.Or(b.Ne(recomposed, x), b.Ult(x, low)))
	axiom := b.Ult(y, b.Const(32, 1000))
	return []*Term{query, axiom}
}

func TestDigestEqualAcrossBuildersAndRenaming(t *testing.T) {
	want := Digest(digestQuery(NewBuilder(), "x", "y")...)
	if got := Digest(digestQuery(NewBuilder(), "x", "y")...); got != want {
		t.Error("the same construction sequence in two builders gives different digests")
	}
	if got := Digest(digestQuery(NewBuilder(), "in!0!n", "in!1!d")...); got != want {
		t.Error("a consistent renaming of the variables changes the digest")
	}
	// Hash-consing within one builder: the same terms digest alike.
	b := NewBuilder()
	if Digest(digestQuery(b, "x", "y")...) != Digest(digestQuery(b, "x", "y")...) {
		t.Error("rebuilding the query in one builder changes the digest")
	}
}

func TestDigestDistinguishesStructure(t *testing.T) {
	b := NewBuilder()
	b.Rewrite = false
	x, y := b.Var(8, "x"), b.Var(8, "y")
	x16 := b.Var(16, "x16")
	c3, c4 := b.Const(8, 3), b.Const(8, 4)
	base := Digest(b.Ult(b.Add(x, c3), y))
	cases := []struct {
		name  string
		roots []*Term
	}{
		{"op", []*Term{b.Ult(b.Sub(x, c3), y)}},
		{"width", []*Term{b.Ult(b.Add(x16, b.Const(16, 3)), b.ZExt(y, 16))}},
		{"constant", []*Term{b.Ult(b.Add(x, c4), y)}},
		{"arg order", []*Term{b.Ult(y, b.Add(x, c3))}},
		{"root added", []*Term{b.Ult(b.Add(x, c3), y), b.Ult(x, y)}},
	}
	for _, c := range cases {
		if Digest(c.roots...) == base {
			t.Errorf("%s: digest unchanged", c.name)
		}
	}

	// Extract bounds: same width, different bits.
	if Digest(b.Extract(x16, 7, 0)) == Digest(b.Extract(x16, 8, 1)) {
		t.Error("extract bounds: digest unchanged")
	}
	// A root replaced, and the roots reordered.
	r1, r2 := b.Ult(x, y), b.Eq(x, c3)
	if Digest(r1, r2) == Digest(r1, b.Eq(x, c4)) {
		t.Error("root replaced: digest unchanged")
	}
	if Digest(r1, r2) == Digest(r2, r1) {
		t.Error("roots reordered: digest unchanged")
	}
	// The roles of two same-width variables: both queries compare x with
	// y, then pin the first-visited variable in one and the second in the
	// other. No renaming maps one onto the other.
	if Digest(r1, b.Eq(x, c3)) == Digest(r1, b.Eq(y, c3)) {
		t.Error("variable roles swapped: digest unchanged")
	}
	// Swapping two same-width variables everywhere is a renaming.
	if Digest(b.Ult(x, y), b.Eq(x, c3)) != Digest(b.Ult(y, x), b.Eq(y, c3)) {
		t.Error("a consistent swap of two variables changes the digest")
	}
}
