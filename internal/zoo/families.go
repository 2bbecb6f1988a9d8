package zoo

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/models"
)

// The paper's six benchmark families, wrapped as registry entries.
// Each Build validates its parameters and maps them onto the model
// config, so a bad user-supplied size is an error, never a panic.

func boolKnob(s Size, key string) bool { return s.Get(key, 0) != 0 }

func init() {
	Register(Entry{
		Name:     "fifo",
		Desc:     "typed FIFO queue of Section IV.A: per-slot type-constraint conjuncts",
		Defaults: Size{"width": 8, "depth": 5, "bound": 128, "bug": 0, "slot-major": 0},
		Sizes: []Size{
			{"width": 3, "depth": 2, "bound": 5},
			{"width": 8, "depth": 5},
			{"width": 8, "depth": 10},
		},
		Build: func(s Size) (*ir.Model, error) {
			w, d := s["width"], s["depth"]
			if w < 1 || d < 1 {
				return nil, fmt.Errorf("zoo: fifo needs width, depth >= 1 (got %d, %d)", w, d)
			}
			if b := s["bound"]; b < 0 || (w < 63 && uint64(b) > 1<<uint(w)) {
				return nil, fmt.Errorf("zoo: fifo bound %d does not fit %d bits", b, w)
			}
			return models.BuildFIFO(models.FIFOConfig{
				Width: w, Depth: d, Bound: uint64(s["bound"]),
				Bug: boolKnob(s, "bug"), SlotMajor: boolKnob(s, "slot-major"),
			}), nil
		},
	})

	Register(Entry{
		Name:     "network",
		Desc:     "buffered request/ack network of Section IV.A with per-processor counters and FDs",
		Defaults: Size{"procs": 4, "bug": 0},
		Sizes:    []Size{{"procs": 2}, {"procs": 4}, {"procs": 8}},
		Build: func(s Size) (*ir.Model, error) {
			n := s["procs"]
			if n < 1 || n >= 16 {
				return nil, fmt.Errorf("zoo: network needs 1 <= procs < 16 (got %d)", n)
			}
			return models.BuildNetwork(models.NetworkConfig{Procs: n, Bug: boolKnob(s, "bug")}), nil
		},
	})

	Register(Entry{
		Name:     "filter",
		Desc:     "moving-average filter of Section IV (Figure 2): pipelined adder tree vs delayed spec",
		Defaults: Size{"depth": 4, "width": 8, "assist": 0, "bug": 0},
		Sizes: []Size{
			{"depth": 2, "width": 1},
			{"depth": 4, "width": 8, "assist": 1},
			{"depth": 8, "width": 8, "assist": 1},
		},
		Build: func(s Size) (*ir.Model, error) {
			d, w := s["depth"], s["width"]
			if d < 2 || d&(d-1) != 0 {
				return nil, fmt.Errorf("zoo: filter depth must be a power of two >= 2 (got %d)", d)
			}
			if w < 1 {
				return nil, fmt.Errorf("zoo: filter needs width >= 1 (got %d)", w)
			}
			return models.BuildFilter(models.FilterConfig{
				Depth: d, SampleWidth: w, Assist: boolKnob(s, "assist"), Bug: boolKnob(s, "bug"),
			}), nil
		},
	})

	Register(Entry{
		Name:     "pipeline",
		Desc:     "pipelined processor vs ISA spec of Section IV.B (Figure 3)",
		Defaults: Size{"regs": 2, "width": 1, "assist": 0, "bug": 0, "separate-reg-files": 0},
		Sizes: []Size{
			{"regs": 2, "width": 1},
			{"regs": 2, "width": 2, "assist": 1},
			{"regs": 4, "width": 2, "assist": 1},
		},
		Build: func(s Size) (*ir.Model, error) {
			r, w := s["regs"], s["width"]
			if r < 2 || r&(r-1) != 0 {
				return nil, fmt.Errorf("zoo: pipeline needs a power-of-two register count >= 2 (got %d)", r)
			}
			if w < 1 {
				return nil, fmt.Errorf("zoo: pipeline needs width >= 1 (got %d)", w)
			}
			return models.BuildPipeline(models.PipelineConfig{
				Regs: r, Width: w, Assist: boolKnob(s, "assist"), Bug: boolKnob(s, "bug"),
				SeparateRegFiles: boolKnob(s, "separate-reg-files"),
			}), nil
		},
	})

	Register(Entry{
		Name:     "coherence",
		Desc:     "directory-based MSI cache coherence: SWMR + directory-consistency conjuncts and FDs",
		Defaults: Size{"caches": 3, "bug": 0},
		Sizes:    []Size{{"caches": 2}, {"caches": 4}, {"caches": 6}},
		Build: func(s Size) (*ir.Model, error) {
			n := s["caches"]
			if n < 2 || n > 8 {
				return nil, fmt.Errorf("zoo: coherence needs 2 <= caches <= 8 (got %d)", n)
			}
			return models.BuildCoherence(models.CoherenceConfig{Caches: n, Bug: boolKnob(s, "bug")}), nil
		},
	})

	Register(Entry{
		Name:     "link",
		Desc:     "alternating-bit link protocol over lossy channels: data-integrity conjuncts",
		Defaults: Size{"data-bits": 2, "bug": 0},
		Sizes:    []Size{{"data-bits": 1}, {"data-bits": 2}, {"data-bits": 4}},
		Build: func(s Size) (*ir.Model, error) {
			w := s["data-bits"]
			if w < 1 || w > 16 {
				return nil, fmt.Errorf("zoo: link needs 1 <= data-bits <= 16 (got %d)", w)
			}
			return models.BuildLink(models.LinkConfig{DataBits: w, Bug: boolKnob(s, "bug")}), nil
		},
	})
}
