package ir

import (
	"fmt"
	"strconv"
)

// Block is a basic block: a straight-line instruction sequence ending in
// exactly one terminator.
type Block struct {
	Nm     string
	Instrs []*Instr
	parent *Function
}

// Name returns the block's label (without the % sigil).
func (b *Block) Name() string { return b.Nm }

// Parent returns the containing function.
func (b *Block) Parent() *Function { return b.parent }

// Term returns the block's terminator, or nil if the block is empty or
// unterminated (only legal mid-construction).
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the block's successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Targets
}

// Append adds an instruction at the end of the block and returns it.
func (b *Block) Append(in *Instr) *Instr {
	in.parent = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertAt inserts an instruction at index idx (0 = first).
func (b *Block) InsertAt(idx int, in *Instr) {
	if idx < 0 || idx > len(b.Instrs) {
		panic(fmt.Sprintf("ir: InsertAt index %d out of range", idx))
	}
	in.parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// Remove deletes the instruction at index idx and detaches it.
func (b *Block) Remove(idx int) *Instr {
	in := b.Instrs[idx]
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
	in.parent = nil
	return in
}

// IndexOf returns the position of in within the block, or -1.
func (b *Block) IndexOf(in *Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// Phis returns the block's leading phi instructions.
func (b *Block) Phis() []*Instr {
	var out []*Instr
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		out = append(out, in)
	}
	return out
}

// Function is an IR function: a signature plus (for definitions) a CFG of
// basic blocks. The first block is the entry block.
type Function struct {
	Name   string
	RetTy  Type
	Params []*Param
	Attrs  FuncAttrs
	Blocks []*Block
	// IsDecl marks declarations (no body), e.g. `declare void @clobber(ptr)`.
	IsDecl bool
	parent *Module
}

// NewFunction creates an empty function definition.
func NewFunction(name string, ret Type, params ...*Param) *Function {
	return &Function{Name: name, RetTy: ret, Params: params}
}

// Sig returns the function's type signature.
func (f *Function) Sig() FuncType {
	ps := make([]Type, len(f.Params))
	for i, p := range f.Params {
		ps[i] = p.Ty
	}
	return FuncType{Ret: f.RetTy, Params: ps}
}

// Entry returns the entry block; it panics on declarations.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		panic("ir: Entry on declaration " + f.Name)
	}
	return f.Blocks[0]
}

// NewBlock appends a fresh block with the given label.
func (f *Function) NewBlock(name string) *Block {
	b := &Block{Nm: name, parent: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewDetachedBlock creates a block owned by f but not yet placed in
// f.Blocks; attach it with AdoptBlock. The parser uses this for blocks
// that are branched to before their label is defined.
func (f *Function) NewDetachedBlock(name string) *Block {
	return &Block{Nm: name, parent: f}
}

// AdoptBlock appends a detached block (created with NewDetachedBlock) at
// the end of the block list.
func (f *Function) AdoptBlock(b *Block) {
	b.parent = f
	f.Blocks = append(f.Blocks, b)
}

// BlockByName returns the block with the given label, or nil.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Nm == name {
			return b
		}
	}
	return nil
}

// RemoveBlock deletes block b from the function. The caller is responsible
// for CFG consistency (no remaining branches to b).
func (f *Function) RemoveBlock(b *Block) {
	for i, x := range f.Blocks {
		if x == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			b.parent = nil
			return
		}
	}
}

// ForEachInstr calls fn for every instruction in block order. If fn
// returns false, iteration stops.
func (f *Function) ForEachInstr(fn func(b *Block, idx int, in *Instr) bool) {
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if !fn(b, i, in) {
				return
			}
		}
	}
}

// Instrs returns all instructions in block order (a fresh slice).
func (f *Function) Instrs() []*Instr {
	var out []*Instr
	for _, b := range f.Blocks {
		out = append(out, b.Instrs...)
	}
	return out
}

// NumInstrs returns the total instruction count.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// ReplaceUses rewrites every use of old as an operand to new, across the
// whole function. It does not touch terminator targets or phi predecessor
// blocks (those are blocks, not values).
func (f *Function) ReplaceUses(old, new Value) int {
	n := 0
	f.ForEachInstr(func(_ *Block, _ int, in *Instr) bool {
		for i, a := range in.Args {
			if a == old {
				in.Args[i] = new
				n++
			}
		}
		return true
	})
	return n
}

// UsersOf returns the instructions that use v as an operand, in block
// order.
func (f *Function) UsersOf(v Value) []*Instr {
	var out []*Instr
	f.ForEachInstr(func(_ *Block, _ int, in *Instr) bool {
		for _, a := range in.Args {
			if a == v {
				out = append(out, in)
				break
			}
		}
		return true
	})
	return out
}

// HasUsers reports whether any instruction uses v as an operand, that is
// whether UsersOf(v) is non-empty, without building the list.
func (f *Function) HasUsers(v Value) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					return true
				}
			}
		}
	}
	return false
}

// HasLoop reports whether the CFG contains a cycle (detected via iterative
// DFS). The translation validator only handles loop-free functions, so the
// fuzzer uses this during preprocessing (paper §III-A).
func (f *Function) HasLoop() bool {
	if f.IsDecl || len(f.Blocks) == 0 {
		return false
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[*Block]int, len(f.Blocks))
	type frame struct {
		b    *Block
		next int
	}
	stack := []frame{{f.Entry(), 0}}
	state[f.Entry()] = gray
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := fr.b.Succs()
		if fr.next < len(succs) {
			s := succs[fr.next]
			fr.next++
			switch state[s] {
			case gray:
				return true
			case white:
				state[s] = gray
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		state[fr.b] = black
		stack = stack[:len(stack)-1]
	}
	return false
}

// Module is a collection of functions (definitions and declarations).
type Module struct {
	Funcs []*Function
}

// NewModule returns an empty module.
func NewModule() *Module { return &Module{} }

// Add appends a function to the module.
func (m *Module) Add(f *Function) *Function {
	f.parent = m
	m.Funcs = append(m.Funcs, f)
	return f
}

// FuncByName returns the function with the given name, or nil.
func (m *Module) FuncByName(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Defs returns the function definitions (non-declarations).
func (m *Module) Defs() []*Function {
	var out []*Function
	for _, f := range m.Funcs {
		if !f.IsDecl {
			out = append(out, f)
		}
	}
	return out
}

// RemoveFunc deletes the named function from the module.
func (m *Module) RemoveFunc(name string) {
	for i, f := range m.Funcs {
		if f.Name == name {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			f.parent = nil
			return
		}
	}
}

// FreshName returns an SSA name of the form prefixN that does not collide
// with any existing parameter or instruction name in the function: the
// one with the smallest N >= 0.
func (f *Function) FreshName(prefix string) string {
	// With k names, one of prefix0 .. prefixk is free, so a single scan
	// marks the taken suffixes below k+1 in a bitset.
	limit := len(f.Params) + 1
	for _, b := range f.Blocks {
		limit += len(b.Instrs)
	}
	var small [4]uint64
	taken := small[:]
	if words := (limit + 63) / 64; words > len(small) {
		taken = make([]uint64, words)
	}
	mark := func(name string) {
		if n, ok := decimalSuffix(name, prefix, limit); ok {
			taken[n/64] |= 1 << (n % 64)
		}
	}
	for _, p := range f.Params {
		mark(p.Nm)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			mark(in.Nm)
		}
	}
	n := 0
	for taken[n/64]&(1<<(n%64)) != 0 {
		n++
	}
	return prefix + strconv.Itoa(n)
}

// decimalSuffix reports whether name is prefix followed by the canonical
// decimal form of some n < limit (no sign, no leading zero), and returns n.
func decimalSuffix(name, prefix string, limit int) (int, bool) {
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return 0, false
	}
	digits := name[len(prefix):]
	if len(digits) > 1 && digits[0] == '0' {
		return 0, false
	}
	n := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n >= limit {
			return 0, false
		}
	}
	return n, true
}
