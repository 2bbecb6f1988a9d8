package models

import (
	"fmt"

	"repro/internal/ir"
)

// FilterConfig parameterizes the moving-average filter of Section IV
// (Figure 2): a pipelined tree of adders (the implementation) against a
// combinational average delayed in a FIFO (the specification), both fed
// by the same sample stream. Depth must be a power of two; the paper
// verifies depths 4, 8 and 16 with 8-bit samples.
type FilterConfig struct {
	Depth       int // window size N (power of two)
	SampleWidth int // bits per sample (paper: 8)

	// Assist supplies the user-written assisting invariants of Table 1:
	// one conjunct per adder-tree layer equating the layer's average
	// with the corresponding entry of the specification's delay FIFO.
	// Without Assist the property is the single output equality, the
	// Table 2 setting in which only XICI succeeds.
	Assist bool

	// Bug, if true, wires one first-layer adder to add the same sample
	// twice, so implementation and specification diverge.
	Bug bool
}

// DefaultFilter returns the paper's configuration at a given depth.
func DefaultFilter(depth int, assist bool) FilterConfig {
	return FilterConfig{Depth: depth, SampleWidth: 8, Assist: assist}
}

// BuildFilter builds the moving-average filter model as
// manager-independent IR.
func BuildFilter(cfg FilterConfig) *ir.Model {
	n, w := cfg.Depth, cfg.SampleWidth
	if w <= 0 {
		panic("models: filter needs positive sample width")
	}
	levels := 0
	for 1<<uint(levels) < n {
		levels++
	}
	if 1<<uint(levels) != n || n < 2 {
		panic("models: filter depth must be a power of two >= 2")
	}

	name := fmt.Sprintf("mafilter-d%d-w%d", n, w)
	if cfg.Assist {
		name += "-assist"
	}
	b := ir.NewBuilder(name)
	b.ParamInt("depth", n)
	b.ParamInt("sample-width", w)
	b.ParamBool("assist", cfg.Assist)
	b.ParamBool("bug", cfg.Bug)

	// Declare all words bit-slice interleaved: for each bit position,
	// the sample input, then the window, the pipeline layers, and the
	// spec FIFO. Widths differ per word; narrower words simply stop
	// contributing slices.
	sample := make([]*ir.Node, w)          // input
	window := makeBitGrid(n, w)            // shared sample shift register
	layers := make([][][]*ir.Node, levels) // layers[k-1][j] = P_k[j], width w+k
	for k := 1; k <= levels; k++ {
		layers[k-1] = makeBitGrid(n>>uint(k), w+k)
	}
	fifo := makeBitGrid(levels, w) // fifo[j-1] = F_j, width w

	maxW := w + levels
	for i := 0; i < maxW; i++ {
		if i < w {
			sample[i] = b.Input(fmt.Sprintf("smp%d", i))
			for j := 0; j < n; j++ {
				window[j][i] = b.State(fmt.Sprintf("w%d.%d", j, i), false)
			}
		}
		for k := 1; k <= levels; k++ {
			if i < w+k {
				for j := range layers[k-1] {
					layers[k-1][j][i] = b.State(fmt.Sprintf("p%d_%d.%d", k, j, i), false)
				}
			}
		}
		if i < w {
			for j := 0; j < levels; j++ {
				fifo[j][i] = b.State(fmt.Sprintf("f%d.%d", j+1, i), false)
			}
		}
	}

	words := func(vv [][]*ir.Node) []ir.Word {
		out := make([]ir.Word, len(vv))
		for i, v := range vv {
			out[i] = ir.FromNodes(v)
		}
		return out
	}

	winW := words(window)
	layerW := make([][]ir.Word, levels)
	for k := range layers {
		layerW[k] = words(layers[k])
	}
	fifoW := words(fifo)

	// Window shift register.
	setWord(b, window[0], ir.FromNodes(sample))
	for i := 1; i < n; i++ {
		setWord(b, window[i], winW[i-1])
	}

	// Pipelined adder tree: layer k registers latch sums of the previous
	// layer's (or the window's) current contents.
	for j := range layers[0] {
		x, y := winW[2*j], winW[2*j+1]
		if cfg.Bug && j == 0 {
			y = x // seeded bug: adds the same sample twice
		}
		setWord(b, layers[0][j], ir.AddExpand(x, y))
	}
	for k := 2; k <= levels; k++ {
		for j := range layers[k-1] {
			setWord(b, layers[k-1][j], ir.AddExpand(layerW[k-2][2*j], layerW[k-2][2*j+1]))
		}
	}

	// Specification: combinational average of the window, delayed in the
	// FIFO to match the pipeline depth.
	specAvg := average(sumTree(winW), levels, w)
	setWord(b, fifo[0], specAvg)
	for j := 1; j < levels; j++ {
		setWord(b, fifo[j], fifoW[j-1])
	}

	// Output equality: the pipelined tree's (discarded-bits) average
	// equals the fully delayed spec average.
	implAvg := average(layerW[levels-1][0], levels, w)
	b.Goal(ir.EqW(implAvg, fifoW[levels-1]))

	if cfg.Assist {
		// One invariant per layer: the average of layer k equals FIFO
		// entry k (the last one is the output property itself).
		for k := 1; k <= levels; k++ {
			layerSum := sumTree(layerW[k-1])
			b.Good(ir.EqW(average(layerSum, levels, w), fifoW[k-1]))
		}
	}
	return b.Build()
}

// makeBitGrid allocates the slot structure for count words of the given
// width (nodes are declared later, slice-interleaved).
func makeBitGrid(count, width int) [][]*ir.Node {
	out := make([][]*ir.Node, count)
	for i := range out {
		out[i] = make([]*ir.Node, width)
	}
	return out
}

// setWord assigns a word-valued next-state function bit by bit.
func setWord(b *ir.Builder, bits []*ir.Node, next ir.Word) {
	if len(bits) != next.Width() {
		panic(fmt.Sprintf("models: setWord width mismatch: %d vars, %d bits", len(bits), next.Width()))
	}
	for i, v := range bits {
		b.SetNext(v, next.Bit(i))
	}
}

// sumTree adds a power-of-two list of equal-width words as a balanced
// tree, growing one bit per level (full precision).
func sumTree(ws []ir.Word) ir.Word {
	if len(ws) == 1 {
		return ws[0]
	}
	next := make([]ir.Word, len(ws)/2)
	for i := range next {
		next[i] = ir.AddExpand(ws[2*i], ws[2*i+1])
	}
	return sumTree(next)
}

// average discards the low `levels` bits of a full-precision sum (the
// "3-bit discard" of Figure 2 for depth 8) and truncates to the sample
// width.
func average(sum ir.Word, levels, width int) ir.Word {
	return ir.ShrW(sum, levels).Truncate(width)
}
