package ir

import (
	"strconv"

	"repro/internal/apint"
)

// Value is anything that can appear as an instruction operand: constants,
// function parameters, and the results of instructions. Mirrors
// llvm::Value.
type Value interface {
	// Type returns the value's IR type.
	Type() Type
	// operandString renders the value as it appears in operand position
	// ("%x", "42", "poison", ...).
	operandString() string
	isValue()
}

// Const is an integer constant of a specific width. The bits are stored in
// canonical apint form (high bits clear). Constants are immutable; the
// mutation engine creates fresh ones rather than editing in place.
type Const struct {
	Ty  IntType
	Val uint64 // canonical: Val & apint.Mask(Ty.Bits) == Val
}

// NewConst returns the integer constant with the given width and value
// (value is truncated to the width).
func NewConst(ty IntType, val uint64) *Const {
	return &Const{Ty: ty, Val: val & apint.Mask(ty.Bits)}
}

// NewBool returns the i1 constant for b.
func NewBool(b bool) *Const {
	if b {
		return NewConst(I1, 1)
	}
	return NewConst(I1, 0)
}

// NewSigned returns the width-w constant for the signed value v.
func NewSigned(ty IntType, v int64) *Const {
	return &Const{Ty: ty, Val: apint.FromInt64(v, ty.Bits)}
}

func (c *Const) Type() Type { return c.Ty }
func (*Const) isValue()     {}

// Signed returns the constant interpreted as a signed integer.
func (c *Const) Signed() int64 { return apint.ToInt64(c.Val, c.Ty.Bits) }

// IsZero reports whether the constant is 0.
func (c *Const) IsZero() bool { return c.Val == 0 }

// IsOne reports whether the constant is 1.
func (c *Const) IsOne() bool { return c.Val == 1 }

// IsAllOnes reports whether the constant is -1 (all bits set).
func (c *Const) IsAllOnes() bool { return c.Val == apint.Mask(c.Ty.Bits) }

func (c *Const) operandString() string {
	if c.Ty.Bits == 1 {
		if c.Val == 1 {
			return "true"
		}
		return "false"
	}
	// LLVM prints integer constants in signed decimal.
	return strconv.FormatInt(c.Signed(), 10)
}

// Poison is the poison constant of a given type. undef is approximated as
// poison throughout this repository (see DESIGN.md §4).
type Poison struct {
	Ty Type
}

func (p *Poison) Type() Type          { return p.Ty }
func (*Poison) isValue()              {}
func (*Poison) operandString() string { return "poison" }

// NullPtr is the constant null pointer.
type NullPtr struct{}

func (*NullPtr) Type() Type            { return Ptr }
func (*NullPtr) isValue()              {}
func (*NullPtr) operandString() string { return "null" }

// Param is a function parameter. Parameters are identified by pointer;
// their index within the function is maintained by the Function.
type Param struct {
	Nm    string
	Ty    Type
	Attrs ParamAttrs
}

func (p *Param) Type() Type { return p.Ty }
func (*Param) isValue()     {}

// Name returns the parameter's SSA name (without the % sigil).
func (p *Param) Name() string { return p.Nm }

func (p *Param) operandString() string { return "%" + p.Nm }

// ParamAttrs models the subset of LLVM parameter attributes that the
// attribute-toggling mutation (paper §IV-A) manipulates.
type ParamAttrs struct {
	Nocapture bool
	Nonnull   bool
	Noundef   bool
	Readonly  bool
	Writeonly bool
	// Dereferenceable, when nonzero, asserts that at least that many bytes
	// are dereferenceable through the pointer.
	Dereferenceable uint64
	// Align, when nonzero, asserts the pointer's alignment in bytes.
	Align uint64
}

// IsZero reports whether no attributes are set.
func (a ParamAttrs) IsZero() bool { return a == ParamAttrs{} }

// FuncAttrs models the function attributes relevant to the paper's
// attribute mutation and to the optimizer's correctness reasoning.
type FuncAttrs struct {
	Nofree     bool
	Willreturn bool
	Norecurse  bool
	Nounwind   bool
	Nosync     bool
	// Memory effect summary: at most one of Readnone/Readonly may be set.
	Readnone bool
	Readonly bool
}

// IsZero reports whether no attributes are set.
func (a FuncAttrs) IsZero() bool { return a == FuncAttrs{} }
