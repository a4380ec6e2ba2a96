// Package ir defines the intermediate representation fuzzed and optimized
// by this repository: a faithful subset of LLVM IR covering SSA-form
// functions over fixed-width integers and opaque pointers, with the
// poison-generating instruction flags (nuw/nsw/exact), function and
// parameter attributes, and the intrinsics exercised by the alive-mutate
// paper's mutation operators.
//
// The package deliberately mirrors LLVM's structure — Module > Function >
// BasicBlock > Instruction, with Values connected by use edges — so that
// the mutation operators from the paper (§IV) translate one-to-one.
package ir

import (
	"strconv"
	"strings"

	"repro/internal/apint"
)

// Type is the interface implemented by all IR types. The type system is
// the integer fragment of LLVM's: iN for 1 <= N <= 64, an opaque pointer
// type, void for instructions that produce no value, and function types
// for call signatures.
type Type interface {
	String() string
	isType()
}

// IntType is the type of N-bit two's-complement integers.
type IntType struct {
	Bits int
}

func (IntType) isType() {}

func (t IntType) String() string {
	if t.Bits >= 1 && t.Bits <= apint.MaxWidth {
		return intTypeNames[t.Bits]
	}
	return "i" + strconv.Itoa(t.Bits)
}

// intTypeNames holds "i1" .. "i64", so printing a type allocates nothing.
var intTypeNames = func() (names [apint.MaxWidth + 1]string) {
	for w := 1; w <= apint.MaxWidth; w++ {
		names[w] = "i" + strconv.Itoa(w)
	}
	return names
}()

// PtrType is LLVM's opaque pointer type ("ptr").
type PtrType struct{}

func (PtrType) isType()        {}
func (PtrType) String() string { return "ptr" }

// VoidType is the type of instructions producing no value.
type VoidType struct{}

func (VoidType) isType()        {}
func (VoidType) String() string { return "void" }

// FuncType describes a function signature.
type FuncType struct {
	Ret    Type
	Params []Type
}

func (FuncType) isType() {}

func (t FuncType) String() string {
	var b strings.Builder
	b.WriteString(t.Ret.String())
	b.WriteString(" (")
	for i, p := range t.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteString(")")
	return b.String()
}

// Convenient shared type values. IntType is a comparable value type, so
// these are plain values, not interned pointers.
var (
	I1   = IntType{1}
	I8   = IntType{8}
	I16  = IntType{16}
	I32  = IntType{32}
	I64  = IntType{64}
	Ptr  = PtrType{}
	Void = VoidType{}
)

// Int returns the integer type with the given bitwidth. It panics if the
// width is outside the supported [1, 64] range.
func Int(bits int) IntType {
	if bits < 1 || bits > apint.MaxWidth {
		panic("ir: unsupported integer width i" + strconv.Itoa(bits))
	}
	return IntType{bits}
}

// TypesEqual reports whether two types are structurally identical.
func TypesEqual(a, b Type) bool {
	switch at := a.(type) {
	case IntType:
		bt, ok := b.(IntType)
		return ok && at.Bits == bt.Bits
	case PtrType:
		_, ok := b.(PtrType)
		return ok
	case VoidType:
		_, ok := b.(VoidType)
		return ok
	case FuncType:
		bt, ok := b.(FuncType)
		if !ok || !TypesEqual(at.Ret, bt.Ret) || len(at.Params) != len(bt.Params) {
			return false
		}
		for i := range at.Params {
			if !TypesEqual(at.Params[i], bt.Params[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// IsInt reports whether t is an integer type, returning its width.
func IsInt(t Type) (int, bool) {
	it, ok := t.(IntType)
	if !ok {
		return 0, false
	}
	return it.Bits, true
}

// IsBool reports whether t is i1.
func IsBool(t Type) bool {
	w, ok := IsInt(t)
	return ok && w == 1
}

// IsPtr reports whether t is the pointer type.
func IsPtr(t Type) bool {
	_, ok := t.(PtrType)
	return ok
}

// IsVoid reports whether t is void.
func IsVoid(t Type) bool {
	_, ok := t.(VoidType)
	return ok
}
