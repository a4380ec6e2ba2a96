package semantics

import (
	"strconv"

	"repro/internal/ir"
	"repro/internal/smt"
)

// Context holds the state shared between the source and target encodings
// of one refinement query: the input variables, the initial-memory
// witness tables (Ackermann-expanded reads), freeze variables, and the
// accumulated axioms that any model must satisfy.
type Context struct {
	B *smt.Builder

	axioms *smt.Term // bv1 conjunction

	inputs    map[int]Value // by parameter index
	initReads map[memEpochKey][]memWitness
	freeze    map[string]*smt.Term
	callRets  map[string]*smt.Term
	nextAux   int
}

type memEpochKey struct {
	prov  int
	epoch int
}

type memWitness struct {
	addr *smt.Term
	val  *smt.Term // bv8
}

// NewContext creates a shared encoding context.
func NewContext(b *smt.Builder) *Context {
	return &Context{
		B:         b,
		axioms:    b.Bool(true),
		inputs:    make(map[int]Value),
		initReads: make(map[memEpochKey][]memWitness),
		freeze:    make(map[string]*smt.Term),
		callRets:  make(map[string]*smt.Term),
	}
}

// Axioms returns the conjunction of consistency constraints accumulated so
// far; the refinement query must conjoin them.
func (c *Context) Axioms() *smt.Term { return c.axioms }

func (c *Context) addAxiom(t *smt.Term) {
	c.axioms = c.B.And(c.axioms, t)
}

// Input returns the shared symbolic value for parameter index i. The
// poison flag is a free variable unless the parameter is marked noundef
// (then it is constrained to zero); nonnull pointer parameters are
// constrained away from address 0.
func (c *Context) Input(i int, p *ir.Param) Value {
	if v, ok := c.inputs[i]; ok {
		return v
	}
	var v Value
	name := "in!" + strconv.Itoa(i) + "!" + p.Nm
	switch {
	case ir.IsPtr(p.Ty):
		v = Value{
			Bits:   c.B.Var(PtrBits, name),
			Poison: c.B.Var(1, name+"!poison"),
			Prov:   ProvExternal,
		}
		if p.Attrs.Nonnull {
			c.addAxiom(c.B.Ne(v.Bits, c.B.Const(PtrBits, 0)))
		}
	default:
		w, ok := ir.IsInt(p.Ty)
		if !ok {
			panic("semantics: unsupported parameter type " + p.Ty.String())
		}
		v = Value{
			Bits:   c.B.Var(w, name),
			Poison: c.B.Var(1, name+"!poison"),
			Prov:   ProvNone,
		}
	}
	if p.Attrs.Noundef {
		c.addAxiom(c.B.Not(v.Poison))
	}
	c.inputs[i] = v
	return v
}

// InitByte reads a byte of the initial (or post-havoc) memory of the given
// provenance and epoch at a symbolic address, Ackermann-style: each
// distinct read site gets a fresh variable plus pairwise consistency
// axioms (equal addresses → equal values). Witness tables are shared
// between source and target, so both sides observe the same initial
// memory.
func (c *Context) InitByte(prov, epoch int, addr *smt.Term) Byte {
	key := memEpochKey{prov, epoch}
	for _, w := range c.initReads[key] {
		if w.addr == addr { // hash-consed: pointer equality is term equality
			return Byte{Bits: w.val, Poison: c.B.Bool(false)}
		}
	}
	c.nextAux++
	v := c.B.Var(8, "mem!"+strconv.Itoa(prov)+"!"+strconv.Itoa(epoch)+"!"+strconv.Itoa(c.nextAux))
	for _, w := range c.initReads[key] {
		c.addAxiom(c.B.Implies(c.B.Eq(addr, w.addr), c.B.Eq(v, w.val)))
	}
	c.initReads[key] = append(c.initReads[key], memWitness{addr: addr, val: v})
	return Byte{Bits: v, Poison: c.B.Bool(false)}
}

// FreezeVar returns the shared nondeterministic replacement value for a
// freeze instruction, keyed by the instruction's SSA name so that a freeze
// surviving optimization resolves to the same choice on both sides.
func (c *Context) FreezeVar(name string, w int) *smt.Term {
	key := "freeze!" + name + "!" + strconv.Itoa(w)
	if t, ok := c.freeze[key]; ok {
		return t
	}
	t := c.B.Var(w, key)
	c.freeze[key] = t
	return t
}

// CallRet returns the shared return-value variable for the idx'th call on
// a path to the given callee.
func (c *Context) CallRet(idx int, callee string, w int) *smt.Term {
	key := "call!" + strconv.Itoa(idx) + "!" + callee + "!" + strconv.Itoa(w)
	if t, ok := c.callRets[key]; ok {
		return t
	}
	t := c.B.Var(w, key)
	c.callRets[key] = t
	return t
}

// ProbeVar returns a fresh free address variable used by the validator to
// universally test memory equality (a free variable under a satisfiability
// query quantifies adversarially, which is exactly ∀ for the refinement's
// negation).
func (c *Context) ProbeVar(tag string) *smt.Term {
	c.nextAux++
	return c.B.Var(PtrBits, "probe!"+tag+"!"+strconv.Itoa(c.nextAux))
}
