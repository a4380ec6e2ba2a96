package ir

import (
	"strconv"
	"sync"
)

// This file implements the textual printer. The output follows LLVM's .ll
// assembly conventions for the supported subset, so files round-trip
// through internal/parser and remain readable next to real LLVM tests.
//
// The fuzzing loop prints every optimized function for its "textually
// unchanged" fast path, so the printer appends to a reused byte buffer
// and formats numbers with strconv: no fmt, no per-operand strings.

// printer accumulates .ll text. With ref set (SameText) it also checks
// each finished line against the same span of ref and stops at the first
// line that differs.
type printer struct {
	buf  []byte
	ref  []byte
	mark int  // start of the line being printed
	diff bool // a finished line differs from ref
}

var printers = sync.Pool{New: func() any { return new(printer) }}

func getPrinter() *printer { return printers.Get().(*printer) }

func putPrinter(p *printer) {
	*p = printer{buf: p.buf[:0]}
	printers.Put(p)
}

// text returns the printed text and releases the printer.
func (p *printer) text() string {
	s := string(p.buf)
	putPrinter(p)
	return s
}

func (p *printer) str(s string) { p.buf = append(p.buf, s...) }
func (p *printer) byte(c byte)  { p.buf = append(p.buf, c) }
func (p *printer) uint(u uint64) {
	p.buf = strconv.AppendUint(p.buf, u, 10)
}

// endLine finishes a line and reports whether printing should go on:
// false once the text is known to differ from ref.
func (p *printer) endLine() bool {
	p.buf = append(p.buf, '\n')
	if p.ref == nil {
		return true
	}
	n := len(p.buf)
	if n > len(p.ref) || string(p.buf[p.mark:]) != string(p.ref[p.mark:n]) {
		p.diff = true
		return false
	}
	p.mark = n
	return true
}

func (p *printer) typ(t Type) {
	if t == nil {
		p.str("<nil>") // only in invalid IR, which verifier messages print
		return
	}
	p.str(t.String())
}

// operand prints a value as it appears in operand position.
func (p *printer) operand(v Value) {
	switch v := v.(type) {
	case *Instr:
		p.byte('%')
		p.str(v.Nm)
	case *Param:
		p.byte('%')
		p.str(v.Nm)
	case *Const:
		if v.Ty.Bits == 1 {
			p.str(v.operandString())
		} else {
			p.buf = strconv.AppendInt(p.buf, v.Signed(), 10)
		}
	default:
		p.str(v.operandString())
	}
}

// typed prints "T %v" / "T 42" for operand lists.
func (p *printer) typed(v Value) {
	p.typ(v.Type())
	p.byte(' ')
	p.operand(v)
}

// label prints "%name" for a branch target or phi predecessor.
func (p *printer) label(b *Block) {
	p.byte('%')
	p.str(b.Nm)
}

// String renders the module in .ll form.
func (m *Module) String() string {
	p := getPrinter()
	for i, f := range m.Funcs {
		if i > 0 {
			p.byte('\n')
		}
		writeFunc(p, f)
	}
	return p.text()
}

// String renders a single function in .ll form.
func (f *Function) String() string {
	p := getPrinter()
	writeFunc(p, f)
	return p.text()
}

// SameText reports whether a and b print to the same .ll text, that is
// whether a.String() == b.String(). It prints into pooled buffers and
// stops at b's first line that differs from a's text.
func SameText(a, b *Function) bool {
	pa, pb := getPrinter(), getPrinter()
	writeFunc(pa, a)
	pb.ref = pa.buf
	writeFunc(pb, b)
	same := !pb.diff && len(pb.buf) == len(pa.buf)
	putPrinter(pa)
	putPrinter(pb)
	return same
}

func writeFunc(p *printer, f *Function) {
	if f.IsDecl {
		p.str("declare ")
		p.typ(f.RetTy)
		p.str(" @")
		p.str(f.Name)
		p.byte('(')
		for i, prm := range f.Params {
			if i > 0 {
				p.str(", ")
			}
			p.typ(prm.Ty)
			writeParamAttrs(p, prm.Attrs)
		}
		p.byte(')')
		writeFuncAttrs(p, f.Attrs)
		p.endLine()
		return
	}
	p.str("define ")
	p.typ(f.RetTy)
	p.str(" @")
	p.str(f.Name)
	p.byte('(')
	for i, prm := range f.Params {
		if i > 0 {
			p.str(", ")
		}
		p.typ(prm.Ty)
		writeParamAttrs(p, prm.Attrs)
		p.str(" %")
		p.str(prm.Nm)
	}
	p.byte(')')
	writeFuncAttrs(p, f.Attrs)
	p.str(" {")
	if !p.endLine() {
		return
	}
	for bi, blk := range f.Blocks {
		// Print non-default entry labels too, for fidelity.
		if bi > 0 || blk.Nm != "" && blk.Nm != "entry" {
			p.str(blk.Nm)
			p.byte(':')
			if !p.endLine() {
				return
			}
		}
		for _, in := range blk.Instrs {
			p.str("  ")
			writeInstr(p, in)
			if !p.endLine() {
				return
			}
		}
	}
	p.byte('}')
	p.endLine()
}

func writeParamAttrs(p *printer, a ParamAttrs) {
	if a.Nocapture {
		p.str(" nocapture")
	}
	if a.Nonnull {
		p.str(" nonnull")
	}
	if a.Noundef {
		p.str(" noundef")
	}
	if a.Readonly {
		p.str(" readonly")
	}
	if a.Writeonly {
		p.str(" writeonly")
	}
	if a.Dereferenceable != 0 {
		p.str(" dereferenceable(")
		p.uint(a.Dereferenceable)
		p.byte(')')
	}
	if a.Align != 0 {
		p.str(" align ")
		p.uint(a.Align)
	}
}

func writeFuncAttrs(p *printer, a FuncAttrs) {
	if a.Nofree {
		p.str(" nofree")
	}
	if a.Willreturn {
		p.str(" willreturn")
	}
	if a.Norecurse {
		p.str(" norecurse")
	}
	if a.Nounwind {
		p.str(" nounwind")
	}
	if a.Nosync {
		p.str(" nosync")
	}
	if a.Readnone {
		p.str(" readnone")
	}
	if a.Readonly {
		p.str(" readonly")
	}
}

// OperandString renders just the value as it appears in operand position.
// Exported for diagnostics and counterexample printing.
func OperandString(v Value) string { return v.operandString() }

// String renders the instruction as a full .ll line (without indentation).
func (i *Instr) String() string {
	p := getPrinter()
	writeInstr(p, i)
	return p.text()
}

func writeInstr(p *printer, in *Instr) {
	if in.Nm != "" && !IsVoid(in.Ty) {
		p.byte('%')
		p.str(in.Nm)
		p.str(" = ")
	}
	switch {
	case in.Op.IsBinary():
		p.str(in.Op.String())
		if in.Nuw {
			p.str(" nuw")
		}
		if in.Nsw {
			p.str(" nsw")
		}
		if in.Exact {
			p.str(" exact")
		}
		p.byte(' ')
		p.typ(in.Ty)
		p.byte(' ')
		p.operand(in.Args[0])
		p.str(", ")
		p.operand(in.Args[1])
	case in.Op == OpICmp:
		p.str("icmp ")
		p.str(in.Pred.String())
		p.byte(' ')
		p.typed(in.Args[0])
		p.str(", ")
		p.operand(in.Args[1])
	case in.Op == OpSelect:
		p.str("select ")
		p.typed(in.Args[0])
		p.str(", ")
		p.typed(in.Args[1])
		p.str(", ")
		p.typed(in.Args[2])
	case in.Op.IsCast():
		p.str(in.Op.String())
		p.byte(' ')
		p.typed(in.Args[0])
		p.str(" to ")
		p.typ(in.Ty)
	case in.Op == OpFreeze:
		p.str("freeze ")
		p.typed(in.Args[0])
	case in.Op == OpAlloca:
		p.str("alloca ")
		p.typ(in.AllocTy)
		writeAlign(p, in.Align)
	case in.Op == OpLoad:
		p.str("load ")
		p.typ(in.Ty)
		p.str(", ")
		p.typed(in.Args[0])
		writeAlign(p, in.Align)
	case in.Op == OpStore:
		p.str("store ")
		p.typed(in.Args[0])
		p.str(", ")
		p.typed(in.Args[1])
		writeAlign(p, in.Align)
	case in.Op == OpGEP:
		p.str("getelementptr i8, ")
		p.typed(in.Args[0])
		p.str(", ")
		p.typed(in.Args[1])
	case in.Op == OpCall:
		p.str("call ")
		p.typ(in.Sig.Ret)
		p.str(" @")
		p.str(in.Callee)
		p.byte('(')
		for i, a := range in.Args {
			if i > 0 {
				p.str(", ")
			}
			p.typed(a)
		}
		p.byte(')')
	case in.Op == OpRet:
		if len(in.Args) == 0 {
			p.str("ret void")
		} else {
			p.str("ret ")
			p.typed(in.Args[0])
		}
	case in.Op == OpBr:
		p.str("br label ")
		p.label(in.Targets[0])
	case in.Op == OpCondBr:
		p.str("br ")
		p.typed(in.Args[0])
		p.str(", label ")
		p.label(in.Targets[0])
		p.str(", label ")
		p.label(in.Targets[1])
	case in.Op == OpUnreachable:
		p.str("unreachable")
	case in.Op == OpPhi:
		p.str("phi ")
		p.typ(in.Ty)
		p.byte(' ')
		for i := range in.Args {
			if i > 0 {
				p.str(", ")
			}
			p.str("[ ")
			p.operand(in.Args[i])
			p.str(", ")
			p.label(in.Preds[i])
			p.str(" ]")
		}
	default:
		p.str("<invalid op ")
		p.buf = strconv.AppendInt(p.buf, int64(in.Op), 10)
		p.byte('>')
	}
}

// writeAlign prints a memory instruction's ", align N" when it has one.
func writeAlign(p *printer, align uint64) {
	if align != 0 {
		p.str(", align ")
		p.uint(align)
	}
}
