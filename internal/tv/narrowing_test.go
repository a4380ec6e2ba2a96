package tv

import (
	"testing"

	"repro/internal/parser"
)

// TestNarrowedDivisionQueries pins the solver effort of four campaign
// queries that smt.Builder's narrowing rules decide by propagation
// alone: two mutants of bug 55129's bitfield_extract seed (a constant
// dividend over a full-width divisor, with and without a mask on the
// quotient), one of bug 53252's clamp_regression seed (instcombine's
// trunc(sdiv i32 (sext a), (sext a)) against sdiv i25 a, a) and one of
// bug 55490's narrow_div seed (a bitwidth mutation's
// trunc(sdiv i12 (zext x), (zext y)), which instcombine promotes to i32
// through sext of the zexts; the signed division of non-negative
// operands is the unsigned one). Left wide, they take hundreds to
// thousands of conflicts, and the masked one and the narrow_div one run
// out of the budget; a rewrite that leaves them wide again fails here,
// not only in the benchmark. The narrow_div query (the campaign's mutant
// 91 at seed 7) folds outright: its one live obligation, the sdiv's
// INT_MIN / -1 test, compares a zext from i8 with 0x80000000.
func TestNarrowedDivisionQueries(t *testing.T) {
	for _, c := range []struct {
		name      string
		src, tgt  string
		conflicts int64
		folds     bool
	}{
		{"55129 bitfield_extract udiv exact 1, x", `define i32 @bf(i32 %x) {
  %rv0 = udiv exact i32 1, %x
  %a = lshr i32 %x, 8
  %b = and i32 %rv0, 255
  ret i32 %b
}`, `define i32 @bf(i32 %x) {
  %rv0 = udiv exact i32 1, %x
  ret i32 %rv0
}`, 0, false},
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
}`, 0, false},
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
}`, 0, false},
		{"55490 narrow_div trunc(sdiv i12 (zext x), (zext y))", `define i8 @ndiv(i8 %x, i8 %y) {
  %bw0 = zext i8 %x to i12
  %bw1 = zext i8 %y to i12
  %r = urem i8 %x, %y
  %new0 = sdiv i12 %bw0, %bw1
  %last0 = trunc i12 %new0 to i8
  %c = icmp ugt i8 -31, %last0
  %s = select i1 %c, i8 %last0, i8 %x
  ret i8 %s
}`, `define i8 @ndiv(i8 %x, i8 %y) {
  %bw0 = zext i8 %x to i12
  %bw1 = zext i8 %y to i12
  %ic0 = zext i8 %x to i32
  %ic1 = zext i8 %y to i32
  %ic2 = urem i32 %ic0, %ic1
  %ic3 = zext i8 %x to i32
  %ic10 = zext i8 %y to i32
  %ic11 = urem i32 %ic3, %ic10
  %r = urem i8 %x, %y
  %ic4 = sext i12 %bw0 to i32
  %ic5 = sext i12 %bw1 to i32
  %ic6 = sdiv i32 %ic4, %ic5
  %ic7 = trunc i32 %ic6 to i12
  %ic13 = sext i12 %bw0 to i32
  %ic14 = sext i12 %bw1 to i32
  %ic15 = sdiv i32 %ic13, %ic14
  %new0 = sdiv i12 %bw0, %bw1
  %last0 = trunc i12 %ic7 to i8
  %ic8 = zext i8 %last0 to i32
  %ic9 = icmp ult i32 %ic8, 225
  %s = select i1 %ic9, i8 %last0, i8 %x
  ret i8 %s
}`, 0, true},
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
		if folded := r.StaticOutcome == StaticProved; folded != c.folds {
			t.Errorf("%s: folded during encoding %t, want %t (%d propagations)", c.name, folded, c.folds, r.Propagations)
		}
	}
}
