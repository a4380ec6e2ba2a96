package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/parser"
)

// factsFor parses a single-function module and returns its facts plus an
// index of named instructions.
func factsFor(t *testing.T, text string) (*analysis.Facts, map[string]*ir.Instr) {
	t.Helper()
	mod, err := parser.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := mod.Defs()[0]
	byName := map[string]*ir.Instr{}
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		if in.Nm != "" {
			byName[in.Nm] = in
		}
		return true
	})
	return analysis.NewFacts(f), byName
}

func TestAlwaysPoisonLattice(t *testing.T) {
	fa, ins := factsFor(t, `define i8 @f(i8 %x) {
  %p = add i8 poison, 0
  %strict = xor i8 %p, %x
  %shifted = shl i8 %x, 9
  %divp = udiv i8 %p, %x
  %divbyp = udiv i8 %x, %p
  %fz = freeze i8 %p
  %sel1 = select i1 true, i8 %p, i8 %x
  %sel2 = select i1 true, i8 %x, i8 %p
}`)
	want := map[string]bool{
		"p":      true,
		"strict": true,
		// Shift amount 9 >= width 8: poison without any flag.
		"shifted": true,
		// Poison dividend propagates...
		"divp": true,
		// ...but a poison divisor is UB, not poison.
		"divbyp": false,
		"fz":     false,
		// Only one arm provably poison: the select may pick the other.
		"sel1": false,
		"sel2": false,
	}
	for name, exp := range want {
		if got := fa.AlwaysPoison(ins[name]); got != exp {
			t.Errorf("AlwaysPoison(%%%s) = %v, want %v", name, got, exp)
		}
	}
}

func TestFlagNeverFires(t *testing.T) {
	fa, ins := factsFor(t, `define i8 @f(i8 %x) {
  %lo = and i8 %x, 15
  %sum = add i8 %lo, %lo
  %wide = add i8 %x, %x
  %bytes = and i8 %x, 252
  %shr = lshr i8 %bytes, 2
  %shrx = lshr i8 %x, 2
  %quot = udiv i8 %bytes, 4
  %quotx = udiv i8 %x, 3
}`)
	cases := []struct {
		name             string
		wantNuw, wantNsw bool
		wantExact        bool
	}{
		// [0,15]+[0,15] = [0,30] at width 8: neither wrap fires.
		{"sum", true, true, false},
		// Unconstrained x+x: both wraps possible.
		{"wide", false, false, false},
		// Low two bits known zero, shifted out by 2: exact.
		{"shr", false, false, true},
		{"shrx", false, false, false},
		// Power-of-two divisor with matching trailing zeros: exact.
		{"quot", false, false, true},
		{"quotx", false, false, false},
	}
	for _, c := range cases {
		nuw, nsw, exact := fa.FlagNeverFires(ins[c.name])
		if nuw != c.wantNuw || nsw != c.wantNsw || exact != c.wantExact {
			t.Errorf("FlagNeverFires(%%%s) = (nuw=%v nsw=%v exact=%v), want (nuw=%v nsw=%v exact=%v)",
				c.name, nuw, nsw, exact, c.wantNuw, c.wantNsw, c.wantExact)
		}
	}
}
