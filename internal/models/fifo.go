package models

import (
	"fmt"

	"repro/internal/ir"
)

// FIFOConfig parameterizes the typed FIFO queue of Section IV.A: a
// Width-bit wide shift-register queue of Depth slots whose input obeys
// the type constraint value <= Bound (the paper uses Width 8, Bound 128,
// and reports depths with per-slot conjuncts of ~9 nodes, matching
// depths 5 and 10 for its two table groups).
type FIFOConfig struct {
	Width int    // bits per item (paper: 8)
	Depth int    // queue depth
	Bound uint64 // type constraint: items are <= Bound (paper: 128)

	// Bug, if true, drops the input type constraint so untyped values
	// enter the queue and the property fails.
	Bug bool

	// SlotMajor declares the state variables slot by slot instead of
	// interleaving the bit-slices of all slots — the naive ordering a
	// frontend would produce. Provided for the ordering ablation: the
	// monolithic good-state BDD is exponentially larger without the
	// interleaving heuristic the paper cites (ref [19]).
	SlotMajor bool
}

// DefaultFIFO returns the paper's configuration at a given depth.
func DefaultFIFO(depth int) FIFOConfig {
	return FIFOConfig{Width: 8, Depth: depth, Bound: 128}
}

// BuildFIFO builds the typed FIFO model as manager-independent IR. The
// variable order interleaves the bit-slices of all slots (input bit b,
// then bit b of every slot), the standard datapath ordering heuristic.
//
// The property — every slot obeys the type constraint — is the natural
// per-slot implicit conjunction (the good list), which is the partition
// the ICI method needs.
func BuildFIFO(cfg FIFOConfig) *ir.Model {
	if cfg.Width <= 0 || cfg.Depth <= 0 {
		panic("models: FIFO needs positive width and depth")
	}
	b := ir.NewBuilder(fmt.Sprintf("fifo-w%d-d%d", cfg.Width, cfg.Depth))
	b.ParamInt("width", cfg.Width)
	b.ParamInt("depth", cfg.Depth)
	b.Param("bound", fmt.Sprintf("%d", cfg.Bound))
	b.ParamBool("bug", cfg.Bug)
	b.ParamBool("slot-major", cfg.SlotMajor)

	in := make([]*ir.Node, cfg.Width)
	slots := make([][]*ir.Node, cfg.Depth)
	for d := range slots {
		slots[d] = make([]*ir.Node, cfg.Width)
	}
	if cfg.SlotMajor {
		for i := 0; i < cfg.Width; i++ {
			in[i] = b.Input(fmt.Sprintf("in%d", i))
		}
		for d := 0; d < cfg.Depth; d++ {
			for i := 0; i < cfg.Width; i++ {
				slots[d][i] = b.State(fmt.Sprintf("q%d.%d", d, i), false)
			}
		}
	} else {
		for i := 0; i < cfg.Width; i++ {
			in[i] = b.Input(fmt.Sprintf("in%d", i))
			for d := 0; d < cfg.Depth; d++ {
				slots[d][i] = b.State(fmt.Sprintf("q%d.%d", d, i), false)
			}
		}
	}

	if !cfg.Bug {
		b.Constrain(ir.LeConstW(ir.FromNodes(in), cfg.Bound))
	}

	// Shift register: slot 0 takes the input, slot d takes slot d-1.
	for i := 0; i < cfg.Width; i++ {
		b.SetNext(slots[0][i], in[i])
		for d := 1; d < cfg.Depth; d++ {
			b.SetNext(slots[d][i], slots[d-1][i])
		}
	}

	for d := 0; d < cfg.Depth; d++ {
		b.Good(ir.LeConstW(ir.FromNodes(slots[d]), cfg.Bound))
	}
	return b.Build()
}
