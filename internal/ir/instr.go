package ir

import "fmt"

// Op identifies an instruction opcode.
type Op int

// The instruction set: LLVM's integer arithmetic, bitwise, comparison,
// selection, cast, memory, call and control-flow instructions.
const (
	OpInvalid Op = iota

	// Binary arithmetic (both operands and result share one integer type).
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpShl
	OpLShr
	OpAShr
	OpAnd
	OpOr
	OpXor

	// Comparison: icmp <pred> produces i1.
	OpICmp

	// select i1 %c, T %a, T %b
	OpSelect

	// Casts between integer widths.
	OpZExt
	OpSExt
	OpTrunc

	// freeze stops poison propagation.
	OpFreeze

	// Memory.
	OpAlloca // alloca iN — produces ptr
	OpLoad   // load T, ptr %p
	OpStore  // store T %v, ptr %p
	OpGEP    // getelementptr i8, ptr %p, iN %off (byte-offset form)

	// Calls (direct only; Callee names the target).
	OpCall

	// Control flow terminators.
	OpRet
	OpBr     // unconditional: Targets[0]
	OpCondBr // Args[0]=i1 cond, Targets[0]=true, Targets[1]=false
	OpUnreachable

	// phi joins values across predecessors; Args and Preds are parallel.
	OpPhi

	opMax
)

var opNames = [opMax]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpUDiv: "udiv", OpSDiv: "sdiv", OpURem: "urem", OpSRem: "srem",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpICmp: "icmp", OpSelect: "select",
	OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc",
	OpFreeze: "freeze",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "getelementptr",
	OpCall: "call",
	OpRet:  "ret", OpBr: "br", OpCondBr: "br", OpUnreachable: "unreachable",
	OpPhi: "phi",
}

func (o Op) String() string {
	if o >= 0 && o < opMax && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// BinaryOps lists the binary arithmetic/bitwise opcodes, in a fixed order
// used by the mutation engine when picking a replacement operation.
var BinaryOps = []Op{
	OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem,
	OpShl, OpLShr, OpAShr, OpAnd, OpOr, OpXor,
}

// IsBinary reports whether o is a two-operand integer arithmetic or
// bitwise operation.
func (o Op) IsBinary() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem,
		OpShl, OpLShr, OpAShr, OpAnd, OpOr, OpXor:
		return true
	}
	return false
}

// IsCommutative reports whether swapping the operands of o preserves
// semantics.
func (o Op) IsCommutative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor:
		return true
	}
	return false
}

// HasWrapFlags reports whether o carries nuw/nsw flags.
func (o Op) HasWrapFlags() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpShl:
		return true
	}
	return false
}

// HasExactFlag reports whether o carries the exact flag.
func (o Op) HasExactFlag() bool {
	switch o {
	case OpUDiv, OpSDiv, OpLShr, OpAShr:
		return true
	}
	return false
}

// IsDivRem reports whether o traps (immediate UB) on a zero divisor.
func (o Op) IsDivRem() bool {
	switch o {
	case OpUDiv, OpSDiv, OpURem, OpSRem:
		return true
	}
	return false
}

// IsShift reports whether o is a shift (poison when amount >= width).
func (o Op) IsShift() bool {
	switch o {
	case OpShl, OpLShr, OpAShr:
		return true
	}
	return false
}

// IsCast reports whether o is an integer width cast.
func (o Op) IsCast() bool {
	switch o {
	case OpZExt, OpSExt, OpTrunc:
		return true
	}
	return false
}

// IsTerminator reports whether o must appear only as the final instruction
// of a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case OpRet, OpBr, OpCondBr, OpUnreachable:
		return true
	}
	return false
}

// Pred is an icmp predicate.
type Pred int

// The ten LLVM icmp predicates.
const (
	PredInvalid Pred = iota
	EQ
	NE
	UGT
	UGE
	ULT
	ULE
	SGT
	SGE
	SLT
	SLE
)

var predNames = [SLE + 1]string{
	EQ: "eq", NE: "ne",
	UGT: "ugt", UGE: "uge", ULT: "ult", ULE: "ule",
	SGT: "sgt", SGE: "sge", SLT: "slt", SLE: "sle",
}

// Preds lists all predicates in declaration order.
var Preds = []Pred{EQ, NE, UGT, UGE, ULT, ULE, SGT, SGE, SLT, SLE}

func (p Pred) String() string {
	if p >= 0 && p <= SLE && predNames[p] != "" {
		return predNames[p]
	}
	return fmt.Sprintf("pred(%d)", int(p))
}

// Swapped returns the predicate for the operand-swapped comparison
// (a <pred> b  ==  b <Swapped(pred)> a).
func (p Pred) Swapped() Pred {
	switch p {
	case UGT:
		return ULT
	case UGE:
		return ULE
	case ULT:
		return UGT
	case ULE:
		return UGE
	case SGT:
		return SLT
	case SGE:
		return SLE
	case SLT:
		return SGT
	case SLE:
		return SGE
	default:
		return p // eq/ne are symmetric
	}
}

// Inverse returns the negated predicate (¬(a <pred> b) == a <Inverse> b).
func (p Pred) Inverse() Pred {
	switch p {
	case EQ:
		return NE
	case NE:
		return EQ
	case UGT:
		return ULE
	case UGE:
		return ULT
	case ULT:
		return UGE
	case ULE:
		return UGT
	case SGT:
		return SLE
	case SGE:
		return SLT
	case SLT:
		return SGE
	case SLE:
		return SGT
	default:
		return PredInvalid
	}
}

// IsSigned reports whether the predicate compares as signed integers.
func (p Pred) IsSigned() bool {
	switch p {
	case SGT, SGE, SLT, SLE:
		return true
	}
	return false
}

// Instr is a single IR instruction. An Instr whose type is non-void is
// also a Value usable as an operand of later instructions.
//
// The operand layout per opcode:
//
//	binary ops:   Args = [lhs, rhs]
//	icmp:         Args = [lhs, rhs], Pred set
//	select:       Args = [cond, tval, fval]
//	casts/freeze: Args = [src]
//	alloca:       Args = [], AllocTy set
//	load:         Args = [ptr]
//	store:        Args = [val, ptr]
//	gep:          Args = [ptr, offset]
//	call:         Args = actual arguments, Callee/Sig set
//	ret:          Args = [val] or [] for void
//	br:           Targets = [dest]
//	condbr:       Args = [cond], Targets = [ifTrue, ifFalse]
//	phi:          Args[i] comes from Preds[i]
type Instr struct {
	Op   Op
	Nm   string // SSA name without sigil; "" only for void-typed instrs
	Ty   Type   // result type (Void for store/br/ret/void call/...)
	Args []Value

	// Flags (meaningful per HasWrapFlags/HasExactFlag).
	Nuw, Nsw, Exact bool

	Pred Pred // icmp only

	// Call state.
	Callee string
	Sig    FuncType

	// Memory state.
	AllocTy Type   // alloca element type
	Align   uint64 // load/store/alloca alignment (0 = natural)

	// Control flow.
	Targets []*Block // br/condbr successors
	Preds   []*Block // phi incoming blocks, parallel to Args

	// parent is maintained by Block insertion helpers.
	parent *Block
}

func (i *Instr) Type() Type { return i.Ty }
func (*Instr) isValue()     {}

// Name returns the instruction's SSA result name (without the % sigil).
func (i *Instr) Name() string { return i.Nm }

func (i *Instr) operandString() string { return "%" + i.Nm }

// Parent returns the basic block containing the instruction, or nil if it
// is detached.
func (i *Instr) Parent() *Block { return i.parent }

// IsIntrinsicCall reports whether the instruction is a call to a
// recognized llvm.* intrinsic, returning its kind.
func (i *Instr) IsIntrinsicCall() (IntrinsicKind, bool) {
	if i.Op != OpCall {
		return IntrinsicInvalid, false
	}
	return ParseIntrinsicName(i.Callee)
}

// Operand returns the n'th operand; it panics if out of range so that
// malformed passes fail loudly rather than miscompiling quietly.
func (i *Instr) Operand(n int) Value {
	if n < 0 || n >= len(i.Args) {
		panic(fmt.Sprintf("ir: operand %d out of range for %s", n, i.Op))
	}
	return i.Args[n]
}

// ReplaceOperand sets the n'th operand.
func (i *Instr) ReplaceOperand(n int, v Value) {
	if n < 0 || n >= len(i.Args) {
		panic(fmt.Sprintf("ir: operand %d out of range for %s", n, i.Op))
	}
	i.Args[n] = v
}

// --- constructors ---
// Constructors return detached instructions; callers append them to a
// block (or use Block.Append*).

// NewBinary builds a binary arithmetic/bitwise instruction.
func NewBinary(op Op, name string, lhs, rhs Value) *Instr {
	if !op.IsBinary() {
		panic("ir: NewBinary with non-binary op " + op.String())
	}
	return &Instr{Op: op, Nm: name, Ty: lhs.Type(), Args: []Value{lhs, rhs}}
}

// NewICmp builds an icmp instruction (result type i1).
func NewICmp(pred Pred, name string, lhs, rhs Value) *Instr {
	return &Instr{Op: OpICmp, Nm: name, Ty: I1, Pred: pred, Args: []Value{lhs, rhs}}
}

// NewSelect builds a select instruction.
func NewSelect(name string, cond, tval, fval Value) *Instr {
	return &Instr{Op: OpSelect, Nm: name, Ty: tval.Type(), Args: []Value{cond, tval, fval}}
}

// NewCast builds a zext/sext/trunc instruction to the destination type.
func NewCast(op Op, name string, src Value, to IntType) *Instr {
	if !op.IsCast() {
		panic("ir: NewCast with non-cast op " + op.String())
	}
	return &Instr{Op: op, Nm: name, Ty: to, Args: []Value{src}}
}

// NewFreeze builds a freeze instruction.
func NewFreeze(name string, src Value) *Instr {
	return &Instr{Op: OpFreeze, Nm: name, Ty: src.Type(), Args: []Value{src}}
}

// NewAlloca builds an alloca of the given element type.
func NewAlloca(name string, elem Type, align uint64) *Instr {
	return &Instr{Op: OpAlloca, Nm: name, Ty: Ptr, AllocTy: elem, Align: align}
}

// NewLoad builds a typed load through ptr.
func NewLoad(name string, ty Type, ptr Value, align uint64) *Instr {
	return &Instr{Op: OpLoad, Nm: name, Ty: ty, Args: []Value{ptr}, Align: align}
}

// NewStore builds a store of val through ptr.
func NewStore(val, ptr Value, align uint64) *Instr {
	return &Instr{Op: OpStore, Ty: Void, Args: []Value{val, ptr}, Align: align}
}

// NewGEP builds a byte-offset getelementptr.
func NewGEP(name string, ptr, offset Value) *Instr {
	return &Instr{Op: OpGEP, Nm: name, Ty: Ptr, Args: []Value{ptr, offset}}
}

// NewCall builds a direct call. name must be "" when sig.Ret is void.
func NewCall(name, callee string, sig FuncType, args ...Value) *Instr {
	return &Instr{Op: OpCall, Nm: name, Ty: sig.Ret, Callee: callee, Sig: sig, Args: args}
}

// NewRet builds a return; val is nil for ret void.
func NewRet(val Value) *Instr {
	in := &Instr{Op: OpRet, Ty: Void}
	if val != nil {
		in.Args = []Value{val}
	}
	return in
}

// NewBr builds an unconditional branch.
func NewBr(dest *Block) *Instr {
	return &Instr{Op: OpBr, Ty: Void, Targets: []*Block{dest}}
}

// NewCondBr builds a conditional branch.
func NewCondBr(cond Value, ifTrue, ifFalse *Block) *Instr {
	return &Instr{Op: OpCondBr, Ty: Void, Args: []Value{cond}, Targets: []*Block{ifTrue, ifFalse}}
}

// NewUnreachable builds an unreachable terminator.
func NewUnreachable() *Instr { return &Instr{Op: OpUnreachable, Ty: Void} }

// NewPhi builds a phi with no incoming edges; add them with AddIncoming.
func NewPhi(name string, ty Type) *Instr {
	return &Instr{Op: OpPhi, Nm: name, Ty: ty}
}

// AddIncoming appends an incoming (value, predecessor) pair to a phi.
func (i *Instr) AddIncoming(v Value, pred *Block) {
	if i.Op != OpPhi {
		panic("ir: AddIncoming on non-phi")
	}
	i.Args = append(i.Args, v)
	i.Preds = append(i.Preds, pred)
}
