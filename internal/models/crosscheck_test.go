package models

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/verify"
)

// The refactor contract: every IR-built model is BDD-identical to the
// pre-IR manager-mutating constructor it replaced — same variables in
// the same order, and the same initial set, input constraint,
// next-state functions, monolithic property, good list and functional
// dependencies. Those constructors are deleted. What they built is
// recorded in the zoo's problem golden, which was generated while the
// IR builders still matched them Ref for Ref on every case below; each
// case's IR build must reproduce its block there line for line.

type crosscheckCase struct {
	name    string // subtest name
	problem string // the golden's "problem" line for the same build
	build   func(*bdd.Manager) verify.Problem
}

func crosscheckCases() []crosscheckCase {
	var cases []crosscheckCase
	add := func(name, problem string, build func(*bdd.Manager) verify.Problem) {
		cases = append(cases, crosscheckCase{name, "problem " + problem, build})
	}
	b := func(x bool) int {
		if x {
			return 1
		}
		return 0
	}

	for _, cfg := range []FIFOConfig{
		{Width: 4, Depth: 3, Bound: 9},
		{Width: 3, Depth: 2, Bound: 5, Bug: true},
		{Width: 4, Depth: 2, Bound: 9, SlotMajor: true},
	} {
		cfg := cfg
		add(fmt.Sprintf("fifo/w%d-d%d-bug%t-sm%t", cfg.Width, cfg.Depth, cfg.Bug, cfg.SlotMajor),
			fmt.Sprintf("fifo [bound:%d bug:%d depth:%d slot-major:%d width:%d]",
				cfg.Bound, b(cfg.Bug), cfg.Depth, b(cfg.SlotMajor), cfg.Width),
			func(m *bdd.Manager) verify.Problem { return BuildFIFO(cfg).MustInstantiate(m) })
	}
	for _, cfg := range []NetworkConfig{{Procs: 2}, {Procs: 3, Bug: true}} {
		cfg := cfg
		add(fmt.Sprintf("network/n%d-bug%t", cfg.Procs, cfg.Bug),
			fmt.Sprintf("network [bug:%d procs:%d]", b(cfg.Bug), cfg.Procs),
			func(m *bdd.Manager) verify.Problem { return BuildNetwork(cfg).MustInstantiate(m) })
	}
	for _, cfg := range []FilterConfig{
		{Depth: 4, SampleWidth: 3},
		{Depth: 4, SampleWidth: 3, Assist: true},
		{Depth: 2, SampleWidth: 2, Bug: true},
	} {
		cfg := cfg
		add(fmt.Sprintf("filter/d%d-w%d-assist%t-bug%t", cfg.Depth, cfg.SampleWidth, cfg.Assist, cfg.Bug),
			fmt.Sprintf("filter [assist:%d bug:%d depth:%d width:%d]",
				b(cfg.Assist), b(cfg.Bug), cfg.Depth, cfg.SampleWidth),
			func(m *bdd.Manager) verify.Problem { return BuildFilter(cfg).MustInstantiate(m) })
	}
	for _, cfg := range []PipelineConfig{
		{Regs: 2, Width: 2},
		{Regs: 2, Width: 1, Assist: true},
		{Regs: 2, Width: 1, Bug: true},
		{Regs: 2, Width: 1, SeparateRegFiles: true},
	} {
		cfg := cfg
		add(fmt.Sprintf("pipeline/r%d-b%d-assist%t-bug%t-sep%t", cfg.Regs, cfg.Width, cfg.Assist, cfg.Bug, cfg.SeparateRegFiles),
			fmt.Sprintf("pipeline [assist:%d bug:%d regs:%d separate-reg-files:%d width:%d]",
				b(cfg.Assist), b(cfg.Bug), cfg.Regs, b(cfg.SeparateRegFiles), cfg.Width),
			func(m *bdd.Manager) verify.Problem { return BuildPipeline(cfg).MustInstantiate(m) })
	}
	for _, cfg := range []CoherenceConfig{{Caches: 2}, {Caches: 3, Bug: true}} {
		cfg := cfg
		add(fmt.Sprintf("coherence/n%d-bug%t", cfg.Caches, cfg.Bug),
			fmt.Sprintf("coherence [bug:%d caches:%d]", b(cfg.Bug), cfg.Caches),
			func(m *bdd.Manager) verify.Problem { return BuildCoherence(cfg).MustInstantiate(m) })
	}
	for _, cfg := range []LinkConfig{{DataBits: 2}, {DataBits: 1, Bug: true}} {
		cfg := cfg
		add(fmt.Sprintf("link/w%d-bug%t", cfg.DataBits, cfg.Bug),
			fmt.Sprintf("link [bug:%d data-bits:%d]", b(cfg.Bug), cfg.DataBits),
			func(m *bdd.Manager) verify.Problem { return BuildLink(cfg).MustInstantiate(m) })
	}
	return cases
}

// goldenBlocks splits the problem golden into its blocks, keyed by
// each block's "problem" line; a block holds the lines after it.
func goldenBlocks(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "zoo", "testdata", "problems.golden"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string][]string{}
	key := ""
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if strings.HasPrefix(line, "problem ") {
			key = line
			continue
		}
		blocks[key] = append(blocks[key], line)
	}
	return blocks
}

// dumpProblem writes p in the problem golden's format (the zoo's
// writeProblem): its name, its variables in level order with their
// roles, and per root the node count and the SHA-256 of its WriteDOT
// text.
func dumpProblem(t *testing.T, m *bdd.Manager, p verify.Problem) []string {
	t.Helper()
	var out bytes.Buffer
	ma := p.Machine
	role := map[bdd.Var]string{}
	for _, v := range ma.CurVars() {
		role[v] = "state"
		role[ma.NextVar(v)] = "next"
	}
	for _, v := range ma.InputVars() {
		role[v] = "input"
	}
	fmt.Fprintf(&out, "name %s\n", p.Name)
	for v := bdd.Var(0); int(v) < m.NumVars(); v++ {
		r, ok := role[v]
		if !ok {
			t.Fatalf("%s: variable %s is neither state, next nor input", p.Name, m.VarName(v))
		}
		fmt.Fprintf(&out, "var %d %s %s\n", v, m.VarName(v), r)
	}
	root := func(label string, f bdd.Ref) {
		h := sha256.New()
		_ = m.WriteDOT(h, f) // writes to a hash never fail
		fmt.Fprintf(&out, "%s %d %x\n", label, m.Size(f), h.Sum(nil))
	}
	root("init", ma.Init())
	root("constraint", ma.InputConstraint())
	for _, v := range ma.CurVars() {
		root("next "+m.VarName(v), ma.NextFn(v))
	}
	root("good", p.Good)
	for i, g := range p.GoodList {
		root(fmt.Sprintf("good[%d]", i), g)
	}
	for _, d := range p.Deps {
		root("dep "+m.VarName(d.Var), d.Def)
	}
	return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
}

func TestIRMatchesLegacy(t *testing.T) {
	blocks := goldenBlocks(t)
	for _, tc := range crosscheckCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, ok := blocks[tc.problem]
			if !ok {
				t.Fatalf("the problem golden has no %q", tc.problem)
			}
			m := bdd.New()
			got := dumpProblem(t, m, tc.build(m))
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("line %d under %q:\nIR     %q\nlegacy %q", i+1, tc.problem, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d lines under %q, legacy %d", len(got), tc.problem, len(want))
			}
		})
	}
}
