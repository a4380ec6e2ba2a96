package smt

import (
	"crypto/sha256"
	"encoding/binary"
)

// Digest is a SHA-256 Merkle hash of the term DAGs under roots. A node
// hashes its operator, width, Val, Aux, Aux2 and its ordered argument
// hashes; a variable hashes its width and the index of its first visit
// in one depth-first walk from the roots, in order, not its name.
//
// Equal digests therefore mean equal DAGs up to a consistent renaming of
// variables, with the same operand order and the same variable visit
// order. Every walk that blasts a term to CNF (Vars, the bit-blaster,
// Checker.Check) visits it in that order and never reads a name, so two
// such queries give the same CNF and the same search. Only model
// extraction reads names.
func Digest(roots ...*Term) [32]byte {
	d := digester{memo: make(map[*Term][32]byte)}
	out := make([]byte, 0, 8+32*len(roots))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(roots)))
	for _, r := range roots {
		h := d.hash(r)
		out = append(out, h[:]...)
	}
	return sha256.Sum256(out)
}

type digester struct {
	memo map[*Term][32]byte
	vars uint64
	buf  []byte
}

func (d *digester) hash(t *Term) [32]byte {
	if h, ok := d.memo[t]; ok {
		return h
	}
	for _, a := range t.Args {
		d.hash(a)
	}
	b := d.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Op))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.W))
	if t.Op == OpVar {
		b = binary.LittleEndian.AppendUint64(b, d.vars)
		d.vars++
	} else {
		b = binary.LittleEndian.AppendUint64(b, t.Val)
		b = binary.LittleEndian.AppendUint64(b, uint64(t.Aux))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.Aux2))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(t.Args)))
		for _, a := range t.Args {
			h := d.memo[a]
			b = append(b, h[:]...)
		}
	}
	h := sha256.Sum256(b)
	d.buf = b
	d.memo[t] = h
	return h
}
