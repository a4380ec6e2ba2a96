package smt

import (
	"fmt"

	"repro/internal/apint"
)

// Eval evaluates a term under an assignment of variable names to canonical
// width-truncated values. Every variable reachable from t must be present
// in env. Used to validate counterexample models from the bit-blaster
// against the term-level semantics (a strong internal consistency check),
// and by tests.
func Eval(t *Term, env map[string]uint64) uint64 {
	cache := make(map[*Term]uint64)
	var ev func(*Term) uint64
	ev = func(t *Term) uint64 {
		if v, ok := cache[t]; ok {
			return v
		}
		var v uint64
		switch t.Op {
		case OpConst:
			v = t.Val
		case OpVar:
			val, ok := env[t.Name]
			if !ok {
				panic(fmt.Sprintf("smt: Eval missing variable %q", t.Name))
			}
			v = val & apint.Mask(t.W)
		case OpNot:
			v = apint.Not(ev(t.Args[0]), t.W)
		case OpNeg:
			v = apint.Neg(ev(t.Args[0]), t.W)
		case OpIte:
			if ev(t.Args[0]) == 1 {
				v = ev(t.Args[1])
			} else {
				v = ev(t.Args[2])
			}
		case OpZExt:
			v = apint.ZExt(ev(t.Args[0]), t.Args[0].W, t.W)
		case OpSExt:
			v = apint.SExt(ev(t.Args[0]), t.Args[0].W, t.W)
		case OpExtract:
			v = (ev(t.Args[0]) >> uint(t.Aux2)) & apint.Mask(t.W)
		default:
			v = evalBinary(t.Op, ev(t.Args[0]), ev(t.Args[1]), t.Args[0].W)
		}
		cache[t] = v
		return v
	}
	return ev(t)
}

// Vars returns the distinct variable terms reachable from t, in first-seen
// order.
func Vars(t *Term) []*Term {
	vars, _ := scan(t)
	return vars
}

// scan returns Vars(t) and an estimate of the SAT variables blasting t
// creates (blastVars summed over t's distinct nodes), in one walk.
func scan(t *Term) (vars []*Term, estimate int) {
	seen := make(map[*Term]bool)
	var walk func(*Term)
	walk = func(t *Term) {
		if seen[t] {
			return
		}
		seen[t] = true
		estimate += blastVars(t)
		if t.Op == OpVar {
			vars = append(vars, t)
			return
		}
		for _, a := range t.Args {
			walk(a)
		}
	}
	walk(t)
	return vars, estimate
}

// Size returns the number of distinct nodes in the term DAG — used by the
// rewriter ablation benchmarks to report formula sizes.
func Size(t *Term) int {
	seen := make(map[*Term]bool)
	var walk func(*Term)
	walk = func(t *Term) {
		if seen[t] {
			return
		}
		seen[t] = true
		for _, a := range t.Args {
			walk(a)
		}
	}
	walk(t)
	return len(seen)
}
