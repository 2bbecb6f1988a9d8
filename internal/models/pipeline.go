package models

import (
	"fmt"

	"repro/internal/ir"
)

// PipelineConfig parameterizes the pipelined-processor equivalence
// problem of Section IV.B (Figure 3): a 3-stage pipeline (fetch,
// decode/execute, writeback) with a register bypass path and a branch
// stall, verified against a non-pipelined specification executing the
// same nondeterministic instruction stream, delayed two cycles to stay
// in sync. The property is that the two register files always agree.
type PipelineConfig struct {
	Regs  int // number of registers R (power of two; paper: 2 and 4)
	Width int // datapath width B in bits (paper: 1, 2, 3)

	// Assist supplies the property as a per-register partition (a user
	// assist in the ICI sense; the paper's hand-crafted assisting
	// invariants were stronger still — see EXPERIMENTS.md).
	Assist bool

	// Bug, if true, removes the register bypass on the source operand,
	// so back-to-back dependent instructions read stale values.
	Bug bool

	// SeparateRegFiles declares the two register files as separate
	// blocks (all implementation registers, then all specification
	// registers) instead of interleaving them bit by bit. This is the
	// structurally naive ordering a frontend would produce from two
	// independently-declared processors, and it makes the register-file
	// equality — and every iterate correlating the two files — far more
	// expensive, reproducing the regime of the paper's Table 3. The
	// interleaved default is the hand-optimized ordering.
	SeparateRegFiles bool
}

// The eight opcodes of the paper's instruction set.
const (
	opNOP = 0 // no operation
	opBR  = 1 // branch: no register effect, but stalls the pipeline
	opLD  = 2 // rd <- immediate
	opST  = 3 // store: no-op (memory is abstracted away)
	opADD = 4 // rd <- rd + rs
	opSUB = 5 // rd <- rd - rs
	opMOV = 6 // rd <- rs
	opSR  = 7 // rd <- rd >> 1
)

// DefaultPipeline returns the paper's configuration.
func DefaultPipeline(regs, width int) PipelineConfig {
	return PipelineConfig{Regs: regs, Width: width}
}

// BuildPipeline builds the processor-equivalence model as
// manager-independent IR.
//
// Instruction encoding (LSB first): 3-bit opcode, source register,
// destination register, B-bit immediate.
func BuildPipeline(cfg PipelineConfig) *ir.Model {
	r, bw := cfg.Regs, cfg.Width
	rb := 0
	for 1<<uint(rb) < r {
		rb++
	}
	if 1<<uint(rb) != r || r < 2 {
		panic("models: pipeline needs a power-of-two register count >= 2")
	}
	if bw < 1 {
		panic("models: pipeline needs a positive datapath width")
	}
	ilen := 3 + 2*rb + bw

	name := fmt.Sprintf("pipeline-r%d-b%d", r, bw)
	if cfg.Assist {
		name += "-assist"
	}
	b := ir.NewBuilder(name)
	b.ParamInt("regs", r)
	b.ParamInt("width", bw)
	b.ParamBool("assist", cfg.Assist)
	b.ParamBool("bug", cfg.Bug)
	b.ParamBool("separate-reg-files", cfg.SeparateRegFiles)

	// Instruction stream input, then the instruction-holding registers
	// interleaved: the fetched instruction (pipeline) and the first delay
	// register (spec) always carry equal values, so adjacent ordering
	// keeps their relation small.
	instrV := make([]*ir.Node, ilen)
	frV := make([]*ir.Node, ilen) // pipeline: decode/execute stage instr
	d1V := make([]*ir.Node, ilen) // spec: first delay register
	d2V := make([]*ir.Node, ilen) // spec: second delay register
	for i := 0; i < ilen; i++ {
		instrV[i] = b.Input(fmt.Sprintf("ins%d", i))
		frV[i] = b.State(fmt.Sprintf("fr%d", i), false)
		d1V[i] = b.State(fmt.Sprintf("d1_%d", i), false)
	}
	for i := 0; i < ilen; i++ {
		d2V[i] = b.State(fmt.Sprintf("d2_%d", i), false)
	}

	// Execute/writeback latch: result, destination, write enable, and
	// the branch-in-writeback marker driving the stall.
	exResV := b.States("exr.", bw, false)
	exDstV := b.States("exd.", rb, false)
	exWE := b.State("exw", false)
	brWB := b.State("brw", false)

	// Register files: interleaved implementation/specification per bit
	// (default) or as two separate blocks (SeparateRegFiles).
	implRF := makeBitGrid(r, bw)
	specRF := makeBitGrid(r, bw)
	if cfg.SeparateRegFiles {
		for i := 0; i < r; i++ {
			for j := 0; j < bw; j++ {
				implRF[i][j] = b.State(fmt.Sprintf("ri%d.%d", i, j), false)
			}
		}
		for i := 0; i < r; i++ {
			for j := 0; j < bw; j++ {
				specRF[i][j] = b.State(fmt.Sprintf("rs%d.%d", i, j), false)
			}
		}
	} else {
		for i := 0; i < r; i++ {
			for j := 0; j < bw; j++ {
				implRF[i][j] = b.State(fmt.Sprintf("ri%d.%d", i, j), false)
				specRF[i][j] = b.State(fmt.Sprintf("rs%d.%d", i, j), false)
			}
		}
	}

	type decoded struct {
		op       ir.Word
		src, dst ir.Word
		imm      ir.Word
	}
	decode := func(bits []*ir.Node) decoded {
		w := ir.FromNodes(bits)
		return decoded{
			op:  w.Truncate(3),
			src: w[3 : 3+rb],
			dst: w[3+rb : 3+2*rb],
			imm: w[3+2*rb:],
		}
	}
	isOp := func(d decoded, code uint64) *ir.Node { return ir.EqConstW(d.op, code) }

	fr := decode(frV)
	d2 := decode(d2V)

	// Branch stall: while a BR sits in decode/execute or writeback, the
	// fetch unit receives NOPs (and the spec's intake sees the same
	// NOPs, stalling it identically).
	stall := ir.Or(isOp(fr, opBR), brWB)
	fetched := ir.MuxW(stall, ir.ConstWord(opNOP, ilen), ir.FromNodes(instrV))
	setWord(b, frV, fetched)
	setWord(b, d1V, fetched)
	setWord(b, d2V, ir.FromNodes(d1V))

	// Execute stage (pipeline): operand fetch with bypass from the
	// writeback latch, then compute.
	exRes := ir.FromNodes(exResV)
	exDst := ir.FromNodes(exDstV)
	weNow := exWE

	readImpl := func(sel ir.Word, bypass bool) ir.Word {
		val := ir.ConstWord(0, bw)
		for i := r - 1; i >= 0; i-- {
			val = ir.MuxW(ir.EqConstW(sel, uint64(i)), ir.FromNodes(implRF[i]), val)
		}
		if bypass {
			hit := ir.And(weNow, ir.EqW(exDst, sel))
			val = ir.MuxW(hit, exRes, val)
		}
		return val
	}
	rs := readImpl(fr.src, !cfg.Bug) // seeded bug: no bypass on rs
	rd := readImpl(fr.dst, true)

	execute := func(d decoded, rsV, rdV ir.Word) (ir.Word, *ir.Node) {
		res := ir.ConstWord(0, bw)
		res = ir.MuxW(isOp(d, opLD), d.imm, res)
		res = ir.MuxW(isOp(d, opADD), ir.AddW(rdV, rsV), res)
		res = ir.MuxW(isOp(d, opSUB), ir.SubW(rdV, rsV), res)
		res = ir.MuxW(isOp(d, opMOV), rsV, res)
		res = ir.MuxW(isOp(d, opSR), ir.ShrW(rdV, 1), res)
		we := ir.Or(isOp(d, opLD), isOp(d, opADD), isOp(d, opSUB), isOp(d, opMOV), isOp(d, opSR))
		return res, we
	}

	resNow, weNext := execute(fr, rs, rd)
	setWord(b, exResV, resNow)
	setWord(b, exDstV, fr.dst)
	b.SetNext(exWE, weNext)
	b.SetNext(brWB, isOp(fr, opBR))

	// Writeback stage: the latch contents retire into the register file.
	for i := 0; i < r; i++ {
		hit := ir.And(weNow, ir.EqConstW(exDst, uint64(i)))
		setWord(b, implRF[i], ir.MuxW(hit, exRes, ir.FromNodes(implRF[i])))
	}

	// Specification: fetch-execute-writeback in one cycle on D2.
	specRd := ir.ConstWord(0, bw)
	specRs := ir.ConstWord(0, bw)
	for i := r - 1; i >= 0; i-- {
		w := ir.FromNodes(specRF[i])
		specRs = ir.MuxW(ir.EqConstW(d2.src, uint64(i)), w, specRs)
		specRd = ir.MuxW(ir.EqConstW(d2.dst, uint64(i)), w, specRd)
	}
	specRes, specWE := execute(d2, specRs, specRd)
	for i := 0; i < r; i++ {
		hit := ir.And(specWE, ir.EqConstW(d2.dst, uint64(i)))
		setWord(b, specRF[i], ir.MuxW(hit, specRes, ir.FromNodes(specRF[i])))
	}

	// Property: the register files always agree.
	perReg := make([]*ir.Node, r)
	for i := 0; i < r; i++ {
		perReg[i] = ir.EqW(ir.FromNodes(implRF[i]), ir.FromNodes(specRF[i]))
	}
	b.Goal(ir.And(perReg...))
	if cfg.Assist {
		for i := 0; i < r; i++ {
			b.Good(perReg[i])
		}
	}
	return b.Build()
}
