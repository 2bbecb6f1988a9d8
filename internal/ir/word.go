package ir

import "fmt"

// Word is a little-endian bit vector of expression nodes denoting an
// unsigned integer: the word-level builder (adders, comparators, muxes)
// every model with a datapath is written in. The functions the models
// build through it are pinned by the zoo's problem golden.
type Word []*Node

// WordOf wraps explicit bits (LSB first) as a Word.
func WordOf(bits ...*Node) Word { return Word(bits) }

// FromNodes builds a word from variable (or any) nodes, LSB first.
func FromNodes(bits []*Node) Word { return append(Word(nil), bits...) }

// ConstWord builds a width-bit constant word; it panics if the value
// does not fit, which in model-building code is always a bug worth
// failing fast on.
func ConstWord(value uint64, width int) Word {
	if width < 64 && value>>uint(width) != 0 {
		panic(fmt.Sprintf("ir: constant %d does not fit in %d bits", value, width))
	}
	w := make(Word, width)
	for i := range w {
		w[i] = Bool(value&(1<<uint(i)) != 0)
	}
	return w
}

// Width returns the number of bits.
func (w Word) Width() int { return len(w) }

// Bit returns the i-th bit (LSB = 0).
func (w Word) Bit(i int) *Node { return w[i] }

// Extend zero-extends to width (panics on narrowing — use Truncate).
func (w Word) Extend(width int) Word {
	if width < w.Width() {
		panic("ir: Extend cannot narrow; use Truncate")
	}
	out := append(Word(nil), w...)
	for len(out) < width {
		out = append(out, nFalse)
	}
	return out
}

// Truncate keeps the low width bits.
func (w Word) Truncate(width int) Word {
	if width > w.Width() {
		panic("ir: Truncate cannot widen; use Extend")
	}
	return append(Word(nil), w[:width]...)
}

func (w Word) sameWidth(o Word, op string) {
	if w.Width() != o.Width() {
		panic(fmt.Sprintf("ir: %s of %d-bit and %d-bit words", op, w.Width(), o.Width()))
	}
}

// AddCarry returns the width-preserving sum of a, b and the carry-in,
// plus the carry-out — a ripple-carry adder.
func AddCarry(a, b Word, cin *Node) (Word, *Node) {
	a.sameWidth(b, "AddCarry")
	out := make(Word, a.Width())
	carry := cin
	for i := range out {
		x, y := a[i], b[i]
		out[i] = Xor(Xor(x, y), carry)
		carry = Or(And(x, y), And(carry, Or(x, y)))
	}
	return out, carry
}

// AddW returns a + b modulo 2^width.
func AddW(a, b Word) Word {
	s, _ := AddCarry(a, b, nFalse)
	return s
}

// AddExpand returns a + b at full precision (width+1 bits).
func AddExpand(a, b Word) Word {
	s, cout := AddCarry(a, b, nFalse)
	return append(s, cout)
}

// SubW returns a - b modulo 2^width (two's complement).
func SubW(a, b Word) Word {
	a.sameWidth(b, "SubW")
	nb := make(Word, b.Width())
	for i, bit := range b {
		nb[i] = Not(bit)
	}
	s, _ := AddCarry(a, nb, nTrue)
	return s
}

// IncW returns a + 1 modulo 2^width.
func IncW(a Word) Word { return AddW(a, ConstWord(1, a.Width())) }

// DecW returns a - 1 modulo 2^width.
func DecW(a Word) Word { return SubW(a, ConstWord(1, a.Width())) }

// EqW returns the predicate a == b.
func EqW(a, b Word) *Node {
	a.sameWidth(b, "EqW")
	acc := nTrue
	for i := range a {
		acc = And(acc, Xnor(a[i], b[i]))
		if acc.False() {
			break
		}
	}
	return acc
}

// EqConstW returns the predicate a == value.
func EqConstW(a Word, value uint64) *Node {
	return EqW(a, ConstWord(value, a.Width()))
}

// LtW returns the unsigned predicate a < b.
func LtW(a, b Word) *Node {
	a.sameWidth(b, "LtW")
	lt := nFalse
	for i := 0; i < a.Width(); i++ { // LSB to MSB: higher bits dominate
		x, y := a[i], b[i]
		lt = ITE(Xnor(x, y), lt, y)
	}
	return lt
}

// LeW returns the unsigned predicate a <= b.
func LeW(a, b Word) *Node { return Not(LtW(b, a)) }

// LeConstW returns the predicate a <= value.
func LeConstW(a Word, value uint64) *Node {
	return LeW(a, ConstWord(value, a.Width()))
}

// MuxW returns sel ? a : b, bitwise.
func MuxW(sel *Node, a, b Word) Word {
	a.sameWidth(b, "MuxW")
	out := make(Word, a.Width())
	for i := range out {
		out[i] = ITE(sel, a[i], b[i])
	}
	return out
}

// ShrW returns a logically shifted right by k bits (zero fill).
func ShrW(a Word, k int) Word {
	out := make(Word, a.Width())
	for i := range out {
		if i+k < a.Width() {
			out[i] = a[i+k]
		} else {
			out[i] = nFalse
		}
	}
	return out
}

// PopCountW returns the number of true predicates among flags, as a
// word of just enough bits to hold len(flags).
func PopCountW(flags []*Node) Word {
	width := 1
	for (1<<uint(width))-1 < len(flags) {
		width++
	}
	acc := ConstWord(0, width)
	for _, f := range flags {
		one := make(Word, width)
		one[0] = f
		for i := 1; i < width; i++ {
			one[i] = nFalse
		}
		acc = AddW(acc, one)
	}
	return acc
}
