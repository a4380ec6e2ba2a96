package tv

import (
	"testing"

	"repro/internal/parser"
)

// TestNarrowedDivisionQueries pins the solver effort of three campaign
// queries that smt.Builder's narrowing rules decide by propagation
// alone: two mutants of bug 55129's bitfield_extract seed (a constant
// dividend over a full-width divisor, with and without a mask on the
// quotient) and one of bug 53252's clamp_regression seed (instcombine's
// trunc(sdiv i32 (sext a), (sext a)) against sdiv i25 a, a). Left wide,
// they take hundreds to thousands of conflicts, and the masked one runs
// out of the budget; a rewrite that leaves them wide again fails here,
// not only in the benchmark.
func TestNarrowedDivisionQueries(t *testing.T) {
	for _, c := range []struct {
		name      string
		src, tgt  string
		conflicts int64
	}{
		{"55129 bitfield_extract udiv exact 1, x", `define i32 @bf(i32 %x) {
  %rv0 = udiv exact i32 1, %x
  %a = lshr i32 %x, 8
  %b = and i32 %rv0, 255
  ret i32 %b
}`, `define i32 @bf(i32 %x) {
  %rv0 = udiv exact i32 1, %x
  ret i32 %rv0
}`, 0},
		{"55129 bitfield_extract udiv i45 15, fp0", `define i32 @bf(i32 %x, i45 %fp0) {
  %bw0 = zext i32 %x to i45
  %new0 = lshr i45 %bw0, %bw0
  %a = lshr i32 %x, 8
  %rv0 = udiv i45 15, %fp0
  %last0 = trunc i45 %rv0 to i32
  %b = and i32 %last0, 255
  ret i32 %b
}`, `define i32 @bf(i32 %x, i45 %fp0) {
  %rv0 = udiv i45 15, %fp0
  %last0 = trunc i45 %rv0 to i32
  ret i32 %last0
}`, 0},
		{"53252 clamp_regression sdiv i25 a, a", `define i32 @t1_ult_slt_0(i32 %x, i32 %low, i32 %high, i25 %fp0) {
  %rv0 = sdiv i25 %fp0, %fp0
  %last0 = sext i25 %rv0 to i32
  %t0 = icmp slt i32 %x, -16
  %t1 = select i1 %t0, i32 %low, i32 %high
  %bw0 = trunc i32 %x to i25
  %new0 = add i25 %bw0, 16
  %t2 = add i32 %x, 16
  %t3 = icmp ult i32 %last0, 144
  %r = select i1 %t3, i32 -2147483648, i32 %t1
  ret i32 %r
}`, `define i32 @t1_ult_slt_0(i32 %x, i32 %low, i32 %high, i25 %fp0) {
  %ic0 = sext i25 %fp0 to i32
  %ic2 = sdiv i32 %ic0, %ic0
  %ic3 = trunc i32 %ic2 to i25
  %ic1 = sext i25 %fp0 to i32
  %ic4 = sext i25 %fp0 to i32
  %ic5 = sdiv i32 %ic1, %ic4
  %rv0 = sdiv i25 %fp0, %fp0
  %last0 = sext i25 %ic3 to i32
  %t0 = icmp slt i32 %x, -16
  %t1 = select i1 %t0, i32 %low, i32 %high
  %t3 = icmp ult i32 %last0, 144
  %r = select i1 %t3, i32 -2147483648, i32 %t1
  ret i32 %r
}`, 0},
	} {
		srcMod, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse src: %v", c.name, err)
		}
		tgtMod, err := parser.Parse(c.tgt)
		if err != nil {
			t.Fatalf("%s: parse tgt: %v", c.name, err)
		}
		r := Verify(srcMod, srcMod.Defs()[0], tgtMod.Defs()[0], Options{ConflictBudget: 4000})
		if r.Verdict != Valid || r.Conflicts != c.conflicts {
			t.Errorf("%s: %v (%s) in %d conflicts, want Valid in %d", c.name, r.Verdict, r.Reason, r.Conflicts, c.conflicts)
		}
	}
}
