package bdd

import "fmt"

// Transfer copies BDDs between managers, optionally remapping variables.
// Because the destination may order the (remapped) variables differently,
// the copy rebuilds each node with a full ITE rather than structurally —
// the standard way to evaluate an alternative static variable order (the
// paper's ordering heuristic reference [19]) without destructive
// reordering machinery.
//
// The per-call memo is a slice indexed by source node index with a
// generation stamp, owned by the destination manager: successive
// Transfers into the same destination reuse the arrays and invalidate
// them by bumping the generation, so the map allocation and hashing that
// used to dominate small transfers is gone entirely (BenchmarkTransfer
// measures the difference against the old map memo).

// VarMismatchError is the panic value raised (and converted to an error
// by Guard) when a Transfer reaches a variable in the source function's
// support that the destination manager has not declared. The typical way
// to get here: declare the destination's variables from the source, then
// NewVar on the source — the destination's copy of the order is stale.
type VarMismatchError struct {
	Var     Var // destination variable the copy needed
	DstVars int // variables declared in the destination
	SrcVars int // variables declared in the source
}

func (e *VarMismatchError) Error() string {
	return fmt.Sprintf("bdd: Transfer needs destination variable %d but only %d are declared (source declares %d): destination declared before the source's variables were complete?",
		int(e.Var), e.DstVars, e.SrcVars)
}

// Transfer copies f from src into dst. varMap gives, for each source
// variable (indexed by source level), the corresponding destination
// variable; a nil varMap maps each variable to the same index. All
// variables in f's support must be declared in dst; a violation panics
// with *VarMismatchError (catch it with Guard).
func Transfer(dst, src *Manager, f Ref, varMap []Var) Ref {
	t := newTransferCtx(dst, src, varMap)
	return t.copy(f)
}

// TransferAll copies several roots, sharing the rebuild memo so common
// subgraphs transfer once.
func TransferAll(dst, src *Manager, fs []Ref, varMap []Var) []Ref {
	t := newTransferCtx(dst, src, varMap)
	out := make([]Ref, len(fs))
	for i, f := range fs {
		out[i] = t.copy(f)
	}
	return out
}

type transferCtx struct {
	dst, src *Manager
	varMap   []Var
	val      []Ref    // memo value per source node index
	gen      []uint32 // generation stamp validating val
	cur      uint32
}

// newTransferCtx prepares the destination-owned memo scratch for one
// Transfer/TransferAll call: size it to the source's index bound, then
// invalidate prior contents with a generation bump (sweeping only on
// uint32 wraparound, as the computed cache does for its epochs).
func newTransferCtx(dst, src *Manager, varMap []Var) *transferCtx {
	bound := len(src.nodes)
	if len(dst.xferVal) < bound {
		dst.xferVal = make([]Ref, bound)
		dst.xferGen = make([]uint32, bound)
		dst.xferCur = 0
	}
	dst.xferCur++
	if dst.xferCur == 0 {
		for i := range dst.xferGen {
			dst.xferGen[i] = 0
		}
		dst.xferCur = 1
	}
	return &transferCtx{
		dst: dst, src: src, varMap: varMap,
		val: dst.xferVal, gen: dst.xferGen, cur: dst.xferCur,
	}
}

func (t *transferCtx) copy(f Ref) Ref {
	if f == One {
		return One
	}
	if f == Zero {
		return Zero
	}
	reg := f &^ 1
	idx := reg.index()
	if t.gen[idx] == t.cur {
		return t.val[idx] ^ (f & 1)
	}
	srcVar := Var(t.src.Level(reg))
	dstVar := srcVar
	if t.varMap != nil {
		if int(srcVar) >= len(t.varMap) {
			panic("bdd: Transfer varMap does not cover the support")
		}
		dstVar = t.varMap[srcVar]
	}
	if int(dstVar) < 0 || int(dstVar) >= t.dst.NumVars() {
		panic(&VarMismatchError{
			Var:     dstVar,
			DstVars: t.dst.NumVars(),
			SrcVars: t.src.NumVars(),
		})
	}
	lo := t.copy(t.src.Low(reg))
	hi := t.copy(t.src.High(reg))
	r := t.dst.ite(t.dst.VarRef(dstVar), hi, lo)
	t.val[idx] = r
	t.gen[idx] = t.cur
	return r ^ (f & 1)
}
